//go:build amd64 && !purego

#include "textflag.h"

// AVX micro-kernel for Gemm. See gemm_amd64.go for the contract: one
// float32 accumulator per output element, terms in ascending k, a separate
// VMULPS and VADDPS per term, lanes never hold partial sums. AVX only.

// func gemmKernel32AVX(k int, a *float32, ars, aps uintptr, b *float32, bps uintptr, c *float32, ldc uintptr, add bool)
//
// Y0..Y7 accumulate the 4×16 tile, row r in Y(2r) (columns 0-7) and Y(2r+1)
// (columns 8-15). Per step: the sixteen B values load once into Y8/Y9, and
// each row broadcasts its A value (VBROADCASTSS), multiplies it by both
// halves and adds. The tile is stored, or added to c, row by row.
TEXT ·gemmKernel32AVX(SB), NOSPLIT, $0-65
	MOVQ   k+0(FP), CX
	MOVQ   a+8(FP), SI
	MOVQ   ars+16(FP), R8
	MOVQ   aps+24(FP), R10
	MOVQ   b+32(FP), DI
	MOVQ   bps+40(FP), R11
	MOVQ   c+48(FP), DX
	MOVQ   ldc+56(FP), R12
	LEAQ   (R8)(R8*2), R9
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	TESTQ  CX, CX
	JZ     a32store

a32loop:
	VMOVUPS (DI), Y8
	VMOVUPS 32(DI), Y9
	VBROADCASTSS (SI), Y10
	VMULPS       Y8, Y10, Y11
	VMULPS       Y9, Y10, Y12
	VADDPS       Y11, Y0, Y0
	VADDPS       Y12, Y1, Y1
	VBROADCASTSS (SI)(R8*1), Y10
	VMULPS       Y8, Y10, Y11
	VMULPS       Y9, Y10, Y12
	VADDPS       Y11, Y2, Y2
	VADDPS       Y12, Y3, Y3
	VBROADCASTSS (SI)(R8*2), Y10
	VMULPS       Y8, Y10, Y11
	VMULPS       Y9, Y10, Y12
	VADDPS       Y11, Y4, Y4
	VADDPS       Y12, Y5, Y5
	VBROADCASTSS (SI)(R9*1), Y10
	VMULPS       Y8, Y10, Y11
	VMULPS       Y9, Y10, Y12
	VADDPS       Y11, Y6, Y6
	VADDPS       Y12, Y7, Y7
	ADDQ R10, SI
	ADDQ R11, DI
	DECQ CX
	JNZ  a32loop

a32store:
	MOVBLZX add+64(FP), AX
	TESTQ   AX, AX
	JZ      a32set
	VMOVUPS (DX), Y8
	VMOVUPS 32(DX), Y9
	VADDPS  Y0, Y8, Y8
	VADDPS  Y1, Y9, Y9
	VMOVUPS Y8, (DX)
	VMOVUPS Y9, 32(DX)
	ADDQ    R12, DX
	VMOVUPS (DX), Y8
	VMOVUPS 32(DX), Y9
	VADDPS  Y2, Y8, Y8
	VADDPS  Y3, Y9, Y9
	VMOVUPS Y8, (DX)
	VMOVUPS Y9, 32(DX)
	ADDQ    R12, DX
	VMOVUPS (DX), Y8
	VMOVUPS 32(DX), Y9
	VADDPS  Y4, Y8, Y8
	VADDPS  Y5, Y9, Y9
	VMOVUPS Y8, (DX)
	VMOVUPS Y9, 32(DX)
	ADDQ    R12, DX
	VMOVUPS (DX), Y8
	VMOVUPS 32(DX), Y9
	VADDPS  Y6, Y8, Y8
	VADDPS  Y7, Y9, Y9
	VMOVUPS Y8, (DX)
	VMOVUPS Y9, 32(DX)
	VZEROUPPER
	RET

a32set:
	VMOVUPS Y0, (DX)
	VMOVUPS Y1, 32(DX)
	ADDQ    R12, DX
	VMOVUPS Y2, (DX)
	VMOVUPS Y3, 32(DX)
	ADDQ    R12, DX
	VMOVUPS Y4, (DX)
	VMOVUPS Y5, 32(DX)
	ADDQ    R12, DX
	VMOVUPS Y6, (DX)
	VMOVUPS Y7, 32(DX)
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
