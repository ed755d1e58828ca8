//go:build amd64 && !purego

#include "textflag.h"

// SSE2 micro-kernels for Gemm. See gemm_amd64.go for the contract: one
// accumulator per output element, separate MULPS/ADDPS (MULPD/ADDPD) per
// term in ascending k, lanes never hold partial sums.

// func gemmKernel32SSE(k int, a *float32, ars, aps uintptr, b *float32, bps uintptr, c *float32, ldc uintptr, add bool)
//
// X0..X7 accumulate the tile, row r in X(2r) (columns 0-3) and X(2r+1)
// (columns 4-7). Per step: the eight B values load once into X8/X9, and each
// row broadcasts its A value, multiplies it by both halves and adds.
TEXT ·gemmKernel32SSE(SB), NOSPLIT, $0-65
	MOVQ  k+0(FP), CX
	MOVQ  a+8(FP), SI
	MOVQ  ars+16(FP), R8
	MOVQ  aps+24(FP), R10
	MOVQ  b+32(FP), DI
	MOVQ  bps+40(FP), R11
	MOVQ  c+48(FP), DX
	MOVQ  ldc+56(FP), R12
	LEAQ  (R8)(R8*2), R9
	XORPS X0, X0
	XORPS X1, X1
	XORPS X2, X2
	XORPS X3, X3
	XORPS X4, X4
	XORPS X5, X5
	XORPS X6, X6
	XORPS X7, X7
	TESTQ CX, CX
	JZ    g32store

g32loop:
	MOVUPS (DI), X8
	MOVUPS 16(DI), X9
	MOVSS  (SI), X10
	SHUFPS $0x00, X10, X10
	MOVAPS X10, X11
	MULPS  X8, X10
	MULPS  X9, X11
	ADDPS  X10, X0
	ADDPS  X11, X1
	MOVSS  (SI)(R8*1), X12
	SHUFPS $0x00, X12, X12
	MOVAPS X12, X13
	MULPS  X8, X12
	MULPS  X9, X13
	ADDPS  X12, X2
	ADDPS  X13, X3
	MOVSS  (SI)(R8*2), X14
	SHUFPS $0x00, X14, X14
	MOVAPS X14, X15
	MULPS  X8, X14
	MULPS  X9, X15
	ADDPS  X14, X4
	ADDPS  X15, X5
	MOVSS  (SI)(R9*1), X10
	SHUFPS $0x00, X10, X10
	MOVAPS X10, X11
	MULPS  X8, X10
	MULPS  X9, X11
	ADDPS  X10, X6
	ADDPS  X11, X7
	ADDQ   R10, SI
	ADDQ   R11, DI
	DECQ   CX
	JNZ    g32loop

g32store:
	MOVBLZX add+64(FP), AX
	TESTQ   AX, AX
	JZ      g32set
	MOVUPS (DX), X8
	MOVUPS 16(DX), X9
	ADDPS  X0, X8
	ADDPS  X1, X9
	MOVUPS X8, (DX)
	MOVUPS X9, 16(DX)
	ADDQ   R12, DX
	MOVUPS (DX), X8
	MOVUPS 16(DX), X9
	ADDPS  X2, X8
	ADDPS  X3, X9
	MOVUPS X8, (DX)
	MOVUPS X9, 16(DX)
	ADDQ   R12, DX
	MOVUPS (DX), X8
	MOVUPS 16(DX), X9
	ADDPS  X4, X8
	ADDPS  X5, X9
	MOVUPS X8, (DX)
	MOVUPS X9, 16(DX)
	ADDQ   R12, DX
	MOVUPS (DX), X8
	MOVUPS 16(DX), X9
	ADDPS  X6, X8
	ADDPS  X7, X9
	MOVUPS X8, (DX)
	MOVUPS X9, 16(DX)
	RET

g32set:
	MOVUPS X0, (DX)
	MOVUPS X1, 16(DX)
	ADDQ   R12, DX
	MOVUPS X2, (DX)
	MOVUPS X3, 16(DX)
	ADDQ   R12, DX
	MOVUPS X4, (DX)
	MOVUPS X5, 16(DX)
	ADDQ   R12, DX
	MOVUPS X6, (DX)
	MOVUPS X7, 16(DX)
	RET

// func gemmKernel64SSE(k int, a, b *float64, c *float32, ldc uintptr, add bool)
//
// Same shape in float64: row r accumulates in X(2r) (columns 0-1) and
// X(2r+1) (columns 2-3). Per step the B panel holds four doubles and the A
// panel each of its four values twice, so one load is the broadcast. The
// finished sums are rounded once (CVTPD2PS) and stored or added as float32.
TEXT ·gemmKernel64SSE(SB), NOSPLIT, $0-41
	MOVQ  k+0(FP), CX
	MOVQ  a+8(FP), SI
	MOVQ  b+16(FP), DI
	MOVQ  c+24(FP), DX
	MOVQ  ldc+32(FP), R12
	XORPS X0, X0
	XORPS X1, X1
	XORPS X2, X2
	XORPS X3, X3
	XORPS X4, X4
	XORPS X5, X5
	XORPS X6, X6
	XORPS X7, X7
	TESTQ CX, CX
	JZ    g64store

g64loop:
	MOVUPS (DI), X8
	MOVUPS 16(DI), X9
	MOVUPS (SI), X10
	MOVAPS X10, X11
	MULPD  X8, X10
	MULPD  X9, X11
	ADDPD  X10, X0
	ADDPD  X11, X1
	MOVUPS 16(SI), X12
	MOVAPS X12, X13
	MULPD  X8, X12
	MULPD  X9, X13
	ADDPD  X12, X2
	ADDPD  X13, X3
	MOVUPS 32(SI), X14
	MOVAPS X14, X15
	MULPD  X8, X14
	MULPD  X9, X15
	ADDPD  X14, X4
	ADDPD  X15, X5
	MOVUPS 48(SI), X10
	MOVAPS X10, X11
	MULPD  X8, X10
	MULPD  X9, X11
	ADDPD  X10, X6
	ADDPD  X11, X7
	ADDQ   $64, SI
	ADDQ   $32, DI
	DECQ   CX
	JNZ    g64loop

g64store:
	MOVBLZX add+40(FP), AX
	CVTPD2PS X0, X0
	CVTPD2PS X1, X1
	UNPCKLPD X1, X0
	CVTPD2PS X2, X2
	CVTPD2PS X3, X3
	UNPCKLPD X3, X2
	CVTPD2PS X4, X4
	CVTPD2PS X5, X5
	UNPCKLPD X5, X4
	CVTPD2PS X6, X6
	CVTPD2PS X7, X7
	UNPCKLPD X7, X6
	TESTQ    AX, AX
	JZ       g64set
	MOVUPS (DX), X8
	ADDPS  X0, X8
	MOVUPS X8, (DX)
	ADDQ   R12, DX
	MOVUPS (DX), X8
	ADDPS  X2, X8
	MOVUPS X8, (DX)
	ADDQ   R12, DX
	MOVUPS (DX), X8
	ADDPS  X4, X8
	MOVUPS X8, (DX)
	ADDQ   R12, DX
	MOVUPS (DX), X8
	ADDPS  X6, X8
	MOVUPS X8, (DX)
	RET

g64set:
	MOVUPS X0, (DX)
	ADDQ   R12, DX
	MOVUPS X2, (DX)
	ADDQ   R12, DX
	MOVUPS X4, (DX)
	ADDQ   R12, DX
	MOVUPS X6, (DX)
	RET

// func gemmKernel32AVX(k int, a *float32, ars, aps uintptr, b *float32, bps uintptr, c *float32, ldc uintptr, add bool)
//
// gemmKernel32SSE at twice the width: Y0..Y7 accumulate a 4×16 tile, row r in
// Y(2r) (columns 0-7) and Y(2r+1) (columns 8-15).
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
// gemmKernel64SSE at twice the width: a 4×8 tile, row r in Y(2r) (columns
// 0-3) and Y(2r+1) (columns 4-7), over B panels of eight doubles per step.
// The A panel keeps the paired layout; VBROADCASTSD reads the first of each
// pair.
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
	VMOVUPS (DI), Y8
	VMOVUPS 32(DI), Y9
	VBROADCASTSD (SI), Y10
	VMULPD       Y8, Y10, Y11
	VMULPD       Y9, Y10, Y12
	VADDPD       Y11, Y0, Y0
	VADDPD       Y12, Y1, Y1
	VBROADCASTSD 16(SI), Y10
	VMULPD       Y8, Y10, Y11
	VMULPD       Y9, Y10, Y12
	VADDPD       Y11, Y2, Y2
	VADDPD       Y12, Y3, Y3
	VBROADCASTSD 32(SI), Y10
	VMULPD       Y8, Y10, Y11
	VMULPD       Y9, Y10, Y12
	VADDPD       Y11, Y4, Y4
	VADDPD       Y12, Y5, Y5
	VBROADCASTSD 48(SI), Y10
	VMULPD       Y8, Y10, Y11
	VMULPD       Y9, Y10, Y12
	VADDPD       Y11, Y6, Y6
	VADDPD       Y12, Y7, Y7
	ADDQ $64, SI
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
