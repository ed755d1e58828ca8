//go:build amd64 && !purego

#include "textflag.h"

// FMA micro-kernels for Gemm, 256- and 512-bit. See gemm_amd64.go for the
// contract: one float32 accumulator per output element, terms in ascending
// k, one VFMADD231PS per term (a single rounding, FMA32's), lanes never
// hold partial sums. The 256-bit kernels need AVX and FMA, the 512-bit one
// AVX512F as well.

// func gemmKernel32x32AVX512(tiles, segs, seg int, a *float32, ars, aps uintptr, b *float32, bps uintptr, c *float32, ldc uintptr, add bool)
//
// gemmKernel32AVX on 32 columns: Z0..Z7 accumulate a 4×32 tile, row r in
// Z(2r) (columns 0-15) and Z(2r+1) (columns 16-31); per step the 32 B
// values load once into Z8/Z9 and row r's A value is broadcast into
// Z(10+r). Only Z0-Z15 are used, so VZEROUPPER leaves no dirty upper state.
TEXT ·gemmKernel32x32AVX512(SB), NOSPLIT, $0-81
	MOVQ seg+16(FP), R13
	MOVQ a+24(FP), SI
	MOVQ ars+32(FP), R8
	MOVQ aps+40(FP), R10
	MOVQ bps+56(FP), R11
	MOVQ c+64(FP), DX
	MOVQ ldc+72(FP), R12
	LEAQ (R8)(R8*2), R9
	LEAQ (R12)(R12*2), AX

z32tile:
	MOVQ segs+8(FP), BX
	MOVQ b+48(FP), DI

z32seg:
	VPXORD Z0, Z0, Z0
	VPXORD Z1, Z1, Z1
	VPXORD Z2, Z2, Z2
	VPXORD Z3, Z3, Z3
	VPXORD Z4, Z4, Z4
	VPXORD Z5, Z5, Z5
	VPXORD Z6, Z6, Z6
	VPXORD Z7, Z7, Z7
	MOVQ   R13, CX

z32loop:
	VMOVUPS      (DI), Z8
	VMOVUPS      64(DI), Z9
	VBROADCASTSS (SI), Z10
	VFMADD231PS  Z8, Z10, Z0
	VFMADD231PS  Z9, Z10, Z1
	VBROADCASTSS (SI)(R8*1), Z11
	VFMADD231PS  Z8, Z11, Z2
	VFMADD231PS  Z9, Z11, Z3
	VBROADCASTSS (SI)(R8*2), Z12
	VFMADD231PS  Z8, Z12, Z4
	VFMADD231PS  Z9, Z12, Z5
	VBROADCASTSS (SI)(R9*1), Z13
	VFMADD231PS  Z8, Z13, Z6
	VFMADD231PS  Z9, Z13, Z7
	ADDQ R10, SI
	ADDQ R11, DI
	DECQ CX
	JNZ  z32loop

	CMPB    add+80(FP), $0
	JEQ     z32set
	VADDPS  (DX), Z0, Z0
	VADDPS  64(DX), Z1, Z1
	VMOVUPS Z0, (DX)
	VMOVUPS Z1, 64(DX)
	VADDPS  (DX)(R12*1), Z2, Z2
	VADDPS  64(DX)(R12*1), Z3, Z3
	VMOVUPS Z2, (DX)(R12*1)
	VMOVUPS Z3, 64(DX)(R12*1)
	VADDPS  (DX)(R12*2), Z4, Z4
	VADDPS  64(DX)(R12*2), Z5, Z5
	VMOVUPS Z4, (DX)(R12*2)
	VMOVUPS Z5, 64(DX)(R12*2)
	VADDPS  (DX)(AX*1), Z6, Z6
	VADDPS  64(DX)(AX*1), Z7, Z7
	VMOVUPS Z6, (DX)(AX*1)
	VMOVUPS Z7, 64(DX)(AX*1)
	DECQ    BX
	JNZ     z32seg
	JMP     z32next

z32set:
	VMOVUPS Z0, (DX)
	VMOVUPS Z1, 64(DX)
	VMOVUPS Z2, (DX)(R12*1)
	VMOVUPS Z3, 64(DX)(R12*1)
	VMOVUPS Z4, (DX)(R12*2)
	VMOVUPS Z5, 64(DX)(R12*2)
	VMOVUPS Z6, (DX)(AX*1)
	VMOVUPS Z7, 64(DX)(AX*1)

z32next:
	MOVQ a+24(FP), SI
	LEAQ (SI)(R8*4), SI
	MOVQ SI, a+24(FP)
	LEAQ (DX)(R12*4), DX
	DECQ tiles+0(FP)
	JNZ  z32tile
	VZEROUPPER
	RET

// func gemmKernel32AVX(tiles, segs, seg int, a *float32, ars, aps uintptr, b *float32, bps uintptr, c *float32, ldc uintptr, add bool)
//
// Y0..Y7 accumulate a 4×16 tile, row r in Y(2r) (columns 0-7) and Y(2r+1)
// (columns 8-15). Per segment they start at +0; per step the sixteen B
// values load once into Y8/Y9, and row r broadcasts its A value into
// Y(10+r) (VBROADCASTSS) and fuses its product with both halves into the
// accumulators (VFMADD231PS). At the segment's
// end the tile is added to c (or stored, when add is false) and the next
// segment starts where this one's steps ended. The next tile starts over at
// b, four rows of A and C further on: a, kept in its argument slot, and
// DX advance by 4·ars and 4·ldc.
TEXT ·gemmKernel32AVX(SB), NOSPLIT, $0-81
	MOVQ seg+16(FP), R13
	MOVQ a+24(FP), SI
	MOVQ ars+32(FP), R8
	MOVQ aps+40(FP), R10
	MOVQ bps+56(FP), R11
	MOVQ c+64(FP), DX
	MOVQ ldc+72(FP), R12
	LEAQ (R8)(R8*2), R9
	LEAQ (R12)(R12*2), AX

a32tile:
	MOVQ segs+8(FP), BX
	MOVQ b+48(FP), DI

a32seg:
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	MOVQ   R13, CX

a32loop:
	VMOVUPS      (DI), Y8
	VMOVUPS      32(DI), Y9
	VBROADCASTSS (SI), Y10
	VFMADD231PS  Y8, Y10, Y0
	VFMADD231PS  Y9, Y10, Y1
	VBROADCASTSS (SI)(R8*1), Y11
	VFMADD231PS  Y8, Y11, Y2
	VFMADD231PS  Y9, Y11, Y3
	VBROADCASTSS (SI)(R8*2), Y12
	VFMADD231PS  Y8, Y12, Y4
	VFMADD231PS  Y9, Y12, Y5
	VBROADCASTSS (SI)(R9*1), Y13
	VFMADD231PS  Y8, Y13, Y6
	VFMADD231PS  Y9, Y13, Y7
	ADDQ R10, SI
	ADDQ R11, DI
	DECQ CX
	JNZ  a32loop

	CMPB    add+80(FP), $0
	JEQ     a32set
	VADDPS  (DX), Y0, Y0
	VADDPS  32(DX), Y1, Y1
	VMOVUPS Y0, (DX)
	VMOVUPS Y1, 32(DX)
	VADDPS  (DX)(R12*1), Y2, Y2
	VADDPS  32(DX)(R12*1), Y3, Y3
	VMOVUPS Y2, (DX)(R12*1)
	VMOVUPS Y3, 32(DX)(R12*1)
	VADDPS  (DX)(R12*2), Y4, Y4
	VADDPS  32(DX)(R12*2), Y5, Y5
	VMOVUPS Y4, (DX)(R12*2)
	VMOVUPS Y5, 32(DX)(R12*2)
	VADDPS  (DX)(AX*1), Y6, Y6
	VADDPS  32(DX)(AX*1), Y7, Y7
	VMOVUPS Y6, (DX)(AX*1)
	VMOVUPS Y7, 32(DX)(AX*1)
	DECQ    BX
	JNZ     a32seg
	JMP     a32next

a32set:
	VMOVUPS Y0, (DX)
	VMOVUPS Y1, 32(DX)
	VMOVUPS Y2, (DX)(R12*1)
	VMOVUPS Y3, 32(DX)(R12*1)
	VMOVUPS Y4, (DX)(R12*2)
	VMOVUPS Y5, 32(DX)(R12*2)
	VMOVUPS Y6, (DX)(AX*1)
	VMOVUPS Y7, 32(DX)(AX*1)

a32next:
	MOVQ a+24(FP), SI
	LEAQ (SI)(R8*4), SI
	MOVQ SI, a+24(FP)
	LEAQ (DX)(R12*4), DX
	DECQ tiles+0(FP)
	JNZ  a32tile
	VZEROUPPER
	RET

// func gemmKernel32x8AVX(tiles, segs, seg int, a *float32, ars, aps uintptr, b *float32, bps uintptr, c *float32, ldc uintptr, add bool)
//
// gemmKernel32AVX on eight columns: Y0..Y3 accumulate rows 0..3, the eight
// B values of a step load into Y8.
TEXT ·gemmKernel32x8AVX(SB), NOSPLIT, $0-81
	MOVQ seg+16(FP), R13
	MOVQ a+24(FP), SI
	MOVQ ars+32(FP), R8
	MOVQ aps+40(FP), R10
	MOVQ bps+56(FP), R11
	MOVQ c+64(FP), DX
	MOVQ ldc+72(FP), R12
	LEAQ (R8)(R8*2), R9
	LEAQ (R12)(R12*2), AX

a8tile:
	MOVQ segs+8(FP), BX
	MOVQ b+48(FP), DI

a8seg:
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	MOVQ   R13, CX

a8loop:
	VMOVUPS      (DI), Y8
	VBROADCASTSS (SI), Y10
	VBROADCASTSS (SI)(R8*1), Y11
	VBROADCASTSS (SI)(R8*2), Y12
	VBROADCASTSS (SI)(R9*1), Y13
	VFMADD231PS  Y8, Y10, Y0
	VFMADD231PS  Y8, Y11, Y1
	VFMADD231PS  Y8, Y12, Y2
	VFMADD231PS  Y8, Y13, Y3
	ADDQ R10, SI
	ADDQ R11, DI
	DECQ CX
	JNZ  a8loop

	CMPB    add+80(FP), $0
	JEQ     a8set
	VADDPS  (DX), Y0, Y0
	VADDPS  (DX)(R12*1), Y1, Y1
	VADDPS  (DX)(R12*2), Y2, Y2
	VADDPS  (DX)(AX*1), Y3, Y3
	VMOVUPS Y0, (DX)
	VMOVUPS Y1, (DX)(R12*1)
	VMOVUPS Y2, (DX)(R12*2)
	VMOVUPS Y3, (DX)(AX*1)
	DECQ    BX
	JNZ     a8seg
	JMP     a8next

a8set:
	VMOVUPS Y0, (DX)
	VMOVUPS Y1, (DX)(R12*1)
	VMOVUPS Y2, (DX)(R12*2)
	VMOVUPS Y3, (DX)(AX*1)

a8next:
	MOVQ a+24(FP), SI
	LEAQ (SI)(R8*4), SI
	MOVQ SI, a+24(FP)
	LEAQ (DX)(R12*4), DX
	DECQ tiles+0(FP)
	JNZ  a8tile
	VZEROUPPER
	RET

// func pack32x4AVX(dst *float32, ld uintptr, r0, r1, r2, r3 *float32, mask *[4]uint32, k4 int)
//
// Per block of four steps: X0..X3 load four floats of lanes 0..3, the two
// unpack stages transpose them so that X0..X3 hold steps 0..3 of the four
// lanes, X8 (the mask) clears the padding lanes, and each step's four lanes
// are stored at dst + p·ld. 128-bit VEX only: no upper state to clear.
TEXT ·pack32x4AVX(SB), NOSPLIT, $0-64
	MOVQ    dst+0(FP), DI
	MOVQ    ld+8(FP), R8
	MOVQ    r0+16(FP), AX
	MOVQ    r1+24(FP), BX
	MOVQ    r2+32(FP), CX
	MOVQ    r3+40(FP), DX
	MOVQ    mask+48(FP), R9
	MOVQ    k4+56(FP), R10
	LEAQ    (R8)(R8*2), R11
	VMOVUPS (R9), X8
	XORQ    SI, SI

packloop:
	VMOVUPS   (AX)(SI*1), X0
	VMOVUPS   (BX)(SI*1), X1
	VMOVUPS   (CX)(SI*1), X2
	VMOVUPS   (DX)(SI*1), X3
	VUNPCKLPS X1, X0, X4
	VUNPCKHPS X1, X0, X5
	VUNPCKLPS X3, X2, X6
	VUNPCKHPS X3, X2, X7
	VUNPCKLPD X6, X4, X0
	VUNPCKHPD X6, X4, X1
	VUNPCKLPD X7, X5, X2
	VUNPCKHPD X7, X5, X3
	VANDPS    X8, X0, X0
	VANDPS    X8, X1, X1
	VANDPS    X8, X2, X2
	VANDPS    X8, X3, X3
	VMOVUPS   X0, (DI)
	VMOVUPS   X1, (DI)(R8*1)
	VMOVUPS   X2, (DI)(R8*2)
	VMOVUPS   X3, (DI)(R11*1)
	LEAQ      (DI)(R8*4), DI
	ADDQ      $16, SI
	DECQ      R10
	JNZ       packloop
	RET
