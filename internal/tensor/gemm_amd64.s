//go:build amd64 && !purego

#include "textflag.h"

// AVX micro-kernels for Gemm and the packer of its Wide panels. See
// gemm_amd64.go for the contract: one accumulator per output element, terms
// in ascending k, lanes never hold partial sums; the packer only moves exact
// copies. Single issues a separate VMULPS and VADDPS per term. Wide issues
// one VFMADD231PD per term: its operands are float32 values converted to
// float64, whose product is exact in float64 (48 significant bits, exponent
// in range), so the fused add rounds the same sum the separate multiply and
// add round. AVX and FMA, no AVX2 instruction.

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

// func gemmKernel64AVX(k int, a, b *float64, c *float32, ldc uintptr, add bool)
//
// The same shape in float64: row r of the 4×8 tile accumulates in Y(2r)
// (columns 0-3) and Y(2r+1) (columns 4-7). Per step the B panel holds eight
// doubles and the A panel four, one per row, 8 bytes apart; VBROADCASTSD
// reads each A value and one VFMADD231PD per half-row adds its exact
// products. The finished sums are rounded once (VCVTPD2PS), joined
// into one float32 row (VINSERTF128), and stored or added as float32.
TEXT ·gemmKernel64AVX(SB), NOSPLIT, $0-41
	MOVQ   k+0(FP), CX
	MOVQ   a+8(FP), SI
	MOVQ   b+16(FP), DI
	MOVQ   c+24(FP), DX
	MOVQ   ldc+32(FP), R12
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	TESTQ  CX, CX
	JZ     a64store

a64loop:
	VMOVUPS      (DI), Y8
	VMOVUPS      32(DI), Y9
	VBROADCASTSD (SI), Y10
	VFMADD231PD  Y8, Y10, Y0
	VFMADD231PD  Y9, Y10, Y1
	VBROADCASTSD 8(SI), Y10
	VFMADD231PD  Y8, Y10, Y2
	VFMADD231PD  Y9, Y10, Y3
	VBROADCASTSD 16(SI), Y10
	VFMADD231PD  Y8, Y10, Y4
	VFMADD231PD  Y9, Y10, Y5
	VBROADCASTSD 24(SI), Y10
	VFMADD231PD  Y8, Y10, Y6
	VFMADD231PD  Y9, Y10, Y7
	ADDQ $32, SI
	ADDQ $64, DI
	DECQ CX
	JNZ  a64loop

a64store:
	MOVBLZX add+40(FP), AX
	VCVTPD2PSY  Y0, X0
	VCVTPD2PSY  Y1, X1
	VINSERTF128 $1, X1, Y0, Y0
	VCVTPD2PSY  Y2, X2
	VCVTPD2PSY  Y3, X3
	VINSERTF128 $1, X3, Y2, Y2
	VCVTPD2PSY  Y4, X4
	VCVTPD2PSY  Y5, X5
	VINSERTF128 $1, X5, Y4, Y4
	VCVTPD2PSY  Y6, X6
	VCVTPD2PSY  Y7, X7
	VINSERTF128 $1, X7, Y6, Y6
	TESTQ AX, AX
	JZ    a64set
	VMOVUPS (DX), Y8
	VADDPS  Y0, Y8, Y8
	VMOVUPS Y8, (DX)
	ADDQ    R12, DX
	VMOVUPS (DX), Y8
	VADDPS  Y2, Y8, Y8
	VMOVUPS Y8, (DX)
	ADDQ    R12, DX
	VMOVUPS (DX), Y8
	VADDPS  Y4, Y8, Y8
	VMOVUPS Y8, (DX)
	ADDQ    R12, DX
	VMOVUPS (DX), Y8
	VADDPS  Y6, Y8, Y8
	VMOVUPS Y8, (DX)
	VZEROUPPER
	RET

a64set:
	VMOVUPS Y0, (DX)
	ADDQ    R12, DX
	VMOVUPS Y2, (DX)
	ADDQ    R12, DX
	VMOVUPS Y4, (DX)
	ADDQ    R12, DX
	VMOVUPS Y6, (DX)
	VZEROUPPER
	RET

// func pack64x4AVX(dst *float64, ld uintptr, r0, r1, r2, r3 *float32, mask *[4]uint32, k4 int)
//
// Per block of four steps: X0..X3 load four floats of lanes 0..3, the two
// unpack stages transpose them so that X0..X3 hold steps 0..3 of the four
// lanes, X8 (the mask) clears the padding lanes, and each step converts to
// four doubles stored at dst + p·ld.
TEXT ·pack64x4AVX(SB), NOSPLIT, $0-64
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
	VCVTPS2PD X0, Y0
	VCVTPS2PD X1, Y1
	VCVTPS2PD X2, Y2
	VCVTPS2PD X3, Y3
	VMOVUPD   Y0, (DI)
	VMOVUPD   Y1, (DI)(R8*1)
	VMOVUPD   Y2, (DI)(R8*2)
	VMOVUPD   Y3, (DI)(R11*1)
	LEAQ      (DI)(R8*4), DI
	ADDQ      $16, SI
	DECQ      R10
	JNZ       packloop
	VZEROUPPER
	RET
