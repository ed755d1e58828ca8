//go:build amd64 && !purego

#include "textflag.h"

// AVX2 + FMA kernels for the layer loops of layer.go. See layer_amd64.go for
// the contract: each computes its portable loop's bits.

// tailMask<>: eight all-ones lanes, then eight zero lanes. The eight lanes
// at tailMask<>+32−4r keep the first r.
DATA tailMask<>+0(SB)/8, $0xffffffffffffffff
DATA tailMask<>+8(SB)/8, $0xffffffffffffffff
DATA tailMask<>+16(SB)/8, $0xffffffffffffffff
DATA tailMask<>+24(SB)/8, $0xffffffffffffffff
DATA tailMask<>+32(SB)/8, $0
DATA tailMask<>+40(SB)/8, $0
DATA tailMask<>+48(SB)/8, $0
DATA tailMask<>+56(SB)/8, $0
GLOBL tailMask<>(SB), RODATA|NOPTR, $64

// poolCols<>: the column of each lane's window relative to its quarter's
// first element.
DATA poolCols<>+0(SB)/8, $0x0000000200000000
DATA poolCols<>+8(SB)/8, $0x0000000200000000
DATA poolCols<>+16(SB)/8, $0x0000000200000000
DATA poolCols<>+24(SB)/8, $0x0000000200000000
GLOBL poolCols<>(SB), RODATA|NOPTR, $32

// SUMS4 loads four elements of each of the four planes at p, p+hw, p+2hw,
// p+3hw (R9 = hw, R10 = 3·hw, in bytes), transposes them so that y0..y3
// hold elements 0..3 of the four channels, and converts them to float64.
#define SUMS4(p, y0, y1, y2, y3, x0, x1, x2, x3, t0, t1, t2, t3) \
	VMOVUPS   (p), x0; \
	VMOVUPS   (p)(R9*1), x1; \
	VMOVUPS   (p)(R9*2), x2; \
	VMOVUPS   (p)(R10*1), x3; \
	VUNPCKLPS x1, x0, t0; \
	VUNPCKHPS x1, x0, t1; \
	VUNPCKLPS x3, x2, t2; \
	VUNPCKHPS x3, x2, t3; \
	VUNPCKLPD t2, t0, x0; \
	VUNPCKHPD t2, t0, x1; \
	VUNPCKLPD t3, t1, x2; \
	VUNPCKHPD t3, t1, x3; \
	VCVTPS2PD x0, y0; \
	VCVTPS2PD x1, y1; \
	VCVTPS2PD x2, y2; \
	VCVTPS2PD x3, y3

// SUMS1 gathers one element of each of the four planes at p and converts
// the four to float64.
#define SUMS1(p, y, x) \
	VMOVSS    (p), x; \
	VINSERTPS $0x10, (p)(R9*1), x, x; \
	VINSERTPS $0x20, (p)(R9*2), x, x; \
	VINSERTPS $0x30, (p)(R10*1), x, x; \
	VCVTPS2PD x, y

// func channelSumsKernel(sum, dot *float64, a, b *float32, rows, hw, stride int)
//
// Y0 holds the four running sums of a, Y1 those of a·b, lane j channel j.
// Per row: the blocks of four elements, then the tail one at a time, each
// element an add and a fused multiply-add into its channel's lane. When a
// and b are the same planes (the forward pass's Σx²) the rows load once.
TEXT ·channelSumsKernel(SB), NOSPLIT, $0-56
	MOVQ   a+16(FP), AX
	MOVQ   b+24(FP), BX
	MOVQ   rows+32(FP), CX
	MOVQ   hw+40(FP), R8
	MOVQ   stride+48(FP), R11
	SHLQ   $2, R11
	LEAQ   (R8*4), R9
	LEAQ   (R9)(R9*2), R10
	MOVQ   R8, DX
	SHRQ   $2, DX
	ANDQ   $3, R8
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	CMPQ   AX, BX
	JEQ    sqrow

row:
	MOVQ  AX, R12
	MOVQ  BX, R13
	MOVQ  DX, SI
	TESTQ SI, SI
	JZ    tail

block:
	SUMS4(R12, Y2, Y3, Y4, Y5, X2, X3, X4, X5, X10, X11, X12, X13)
	SUMS4(R13, Y6, Y7, Y8, Y9, X6, X7, X8, X9, X10, X11, X12, X13)
	VADDPD      Y2, Y0, Y0
	VFMADD231PD Y6, Y2, Y1
	VADDPD      Y3, Y0, Y0
	VFMADD231PD Y7, Y3, Y1
	VADDPD      Y4, Y0, Y0
	VFMADD231PD Y8, Y4, Y1
	VADDPD      Y5, Y0, Y0
	VFMADD231PD Y9, Y5, Y1
	ADDQ        $16, R12
	ADDQ        $16, R13
	DECQ        SI
	JNZ         block

tail:
	MOVQ  R8, SI
	TESTQ SI, SI
	JZ    next

tailloop:
	SUMS1(R12, Y2, X2)
	SUMS1(R13, Y6, X6)
	VADDPD      Y2, Y0, Y0
	VFMADD231PD Y6, Y2, Y1
	ADDQ        $4, R12
	ADDQ        $4, R13
	DECQ        SI
	JNZ         tailloop

next:
	ADDQ R11, AX
	ADDQ R11, BX
	DECQ CX
	JNZ  row
	JMP  sumsdone

sqrow:
	MOVQ  AX, R12
	MOVQ  DX, SI
	TESTQ SI, SI
	JZ    sqtail

sqblock:
	SUMS4(R12, Y2, Y3, Y4, Y5, X2, X3, X4, X5, X10, X11, X12, X13)
	VADDPD      Y2, Y0, Y0
	VFMADD231PD Y2, Y2, Y1
	VADDPD      Y3, Y0, Y0
	VFMADD231PD Y3, Y3, Y1
	VADDPD      Y4, Y0, Y0
	VFMADD231PD Y4, Y4, Y1
	VADDPD      Y5, Y0, Y0
	VFMADD231PD Y5, Y5, Y1
	ADDQ        $16, R12
	DECQ        SI
	JNZ         sqblock

sqtail:
	MOVQ  R8, SI
	TESTQ SI, SI
	JZ    sqnext

sqtailloop:
	SUMS1(R12, Y2, X2)
	VADDPD      Y2, Y0, Y0
	VFMADD231PD Y2, Y2, Y1
	ADDQ        $4, R12
	DECQ        SI
	JNZ         sqtailloop

sqnext:
	ADDQ R11, AX
	DECQ CX
	JNZ  sqrow

sumsdone:
	MOVQ    sum+0(FP), DI
	MOVQ    dot+8(FP), SI
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, (SI)
	VZEROUPPER
	RET

// func normalizeKernel(y, xhat, x *float32, rows, hw, stride int, mean, inv, gamma, beta float32)
//
// Per element: x̂ = (x − mean)·inv, stored, then y = gamma·x̂ + beta; Y12
// masks a run's tail.
TEXT ·normalizeKernel(SB), NOSPLIT, $0-64
	MOVQ         y+0(FP), DI
	MOVQ         xhat+8(FP), SI
	MOVQ         x+16(FP), AX
	MOVQ         rows+24(FP), CX
	MOVQ         hw+32(FP), R8
	MOVQ         stride+40(FP), R11
	SHLQ         $2, R11
	VBROADCASTSS mean+48(FP), Y8
	VBROADCASTSS inv+52(FP), Y9
	VBROADCASTSS gamma+56(FP), Y10
	VBROADCASTSS beta+60(FP), Y11
	MOVQ         R8, DX
	SHRQ         $3, DX
	ANDQ         $7, R8
	SHLQ         $2, R8
	LEAQ         tailMask<>+32(SB), R9
	SUBQ         R8, R9
	VMOVDQU      (R9), Y12

nrow:
	MOVQ  DX, BX
	XORQ  R10, R10
	TESTQ BX, BX
	JZ    ntail

ngroup:
	VMOVUPS (AX)(R10*1), Y0
	VSUBPS  Y8, Y0, Y0
	VMULPS  Y9, Y0, Y0
	VMOVUPS Y0, (SI)(R10*1)
	VMULPS  Y0, Y10, Y1
	VADDPS  Y11, Y1, Y1
	VMOVUPS Y1, (DI)(R10*1)
	ADDQ    $32, R10
	DECQ    BX
	JNZ     ngroup

ntail:
	TESTQ      R8, R8
	JZ         nnext
	VMASKMOVPS (AX)(R10*1), Y12, Y0
	VSUBPS     Y8, Y0, Y0
	VMULPS     Y9, Y0, Y0
	VMASKMOVPS Y0, Y12, (SI)(R10*1)
	VMULPS     Y0, Y10, Y1
	VADDPS     Y11, Y1, Y1
	VMASKMOVPS Y1, Y12, (DI)(R10*1)

nnext:
	ADDQ R11, AX
	ADDQ R11, SI
	ADDQ R11, DI
	DECQ CX
	JNZ  nrow
	VZEROUPPER
	RET

// func normalizeGradKernel(dx, dy, xhat *float32, rows, hw, stride int, k, n, sdy, sdyx float32)
//
// Per element: dx = k·((n·dy − sdy) − x̂·sdyx); Y12 masks a run's tail.
TEXT ·normalizeGradKernel(SB), NOSPLIT, $0-64
	MOVQ         dx+0(FP), DI
	MOVQ         dy+8(FP), AX
	MOVQ         xhat+16(FP), SI
	MOVQ         rows+24(FP), CX
	MOVQ         hw+32(FP), R8
	MOVQ         stride+40(FP), R11
	SHLQ         $2, R11
	VBROADCASTSS k+48(FP), Y8
	VBROADCASTSS n+52(FP), Y9
	VBROADCASTSS sdy+56(FP), Y10
	VBROADCASTSS sdyx+60(FP), Y11
	MOVQ         R8, DX
	SHRQ         $3, DX
	ANDQ         $7, R8
	SHLQ         $2, R8
	LEAQ         tailMask<>+32(SB), R9
	SUBQ         R8, R9
	VMOVDQU      (R9), Y12

grow:
	MOVQ  DX, BX
	XORQ  R10, R10
	TESTQ BX, BX
	JZ    gtail

ggroup:
	VMOVUPS (AX)(R10*1), Y0
	VMULPS  Y0, Y9, Y0
	VSUBPS  Y10, Y0, Y0
	VMOVUPS (SI)(R10*1), Y1
	VMULPS  Y11, Y1, Y1
	VSUBPS  Y1, Y0, Y0
	VMULPS  Y0, Y8, Y0
	VMOVUPS Y0, (DI)(R10*1)
	ADDQ    $32, R10
	DECQ    BX
	JNZ     ggroup

gtail:
	TESTQ      R8, R8
	JZ         gnext
	VMASKMOVPS (AX)(R10*1), Y12, Y0
	VMULPS     Y0, Y9, Y0
	VSUBPS     Y10, Y0, Y0
	VMASKMOVPS (SI)(R10*1), Y12, Y1
	VMULPS     Y11, Y1, Y1
	VSUBPS     Y1, Y0, Y0
	VMULPS     Y0, Y8, Y0
	VMASKMOVPS Y0, Y12, (DI)(R10*1)

gnext:
	ADDQ R11, AX
	ADDQ R11, SI
	ADDQ R11, DI
	DECQ CX
	JNZ  grow
	VZEROUPPER
	RET

// NEXTQUARTER moves BX, the byte offset of the next quarter's first
// top-row element, to r and on to the quarter after it: four elements on,
// and past the bottom row when the output row (R11 quarters) is done.
#define NEXTQUARTER(r) \
	MOVQ BX, r; \
	ADDQ $16, BX; \
	DECQ R10; \
	JNZ  3(PC); \
	ADDQ R9, BX; \
	MOVQ R11, R10

// func maxPool2Kernel(dst *float32, arg *int32, src *float32, groups, w int)
//
// A group is four quarters of two outputs, each quarter four elements of a
// top row (at src + R12, R13, DX, BX) and the four below them (+ w). Y2/Y3
// (top row) and Y4/Y5 (bottom row) hold each lane's window, even and odd
// column; Y7 is the running best, Y8 the window offset of the winner (0,
// 1, w or w+1), Y14 = −Inf, Y13 = 1, Y12 = w, Y11 = w+1, Y10 = poolCols.
TEXT ·maxPool2Kernel(SB), NOSPLIT, $0-40
	MOVQ         dst+0(FP), DI
	MOVQ         arg+8(FP), SI
	MOVQ         src+16(FP), AX
	MOVQ         groups+24(FP), CX
	MOVQ         w+32(FP), R8
	LEAQ         (R8*4), R9
	MOVQ         R8, R11
	SHRQ         $2, R11
	MOVQ         R11, R10
	XORQ         BX, BX
	VPCMPEQD     Y0, Y0, Y0
	VPSLLD       $23, Y0, Y14
	VPSRLD       $31, Y0, Y13
	VMOVD        R8, X12
	VPBROADCASTD X12, Y12
	VPADDD       Y13, Y12, Y11
	VMOVDQU      poolCols<>(SB), Y10

pgroup:
	NEXTQUARTER(R12)
	NEXTQUARTER(R13)
	NEXTQUARTER(DX)
	VMOVUPS     (AX)(R12*1), X0
	VINSERTF128 $1, (AX)(DX*1), Y0, Y0
	VMOVUPS     (AX)(R13*1), X1
	VINSERTF128 $1, (AX)(BX*1), Y1, Y1
	VSHUFPS     $0x88, Y1, Y0, Y2
	VSHUFPS     $0xDD, Y1, Y0, Y3
	LEAQ        (AX)(R9*1), R8
	VMOVUPS     (R8)(R12*1), X0
	VINSERTF128 $1, (R8)(DX*1), Y0, Y0
	VMOVUPS     (R8)(R13*1), X1
	VINSERTF128 $1, (R8)(BX*1), Y1, Y1
	VSHUFPS     $0x88, Y1, Y0, Y4
	VSHUFPS     $0xDD, Y1, Y0, Y5
	VCMPPS      $0x1e, Y14, Y2, Y6 // GT_OQ: top even > −Inf
	VBLENDVPS   Y6, Y2, Y14, Y7
	VCMPPS      $0x1e, Y7, Y3, Y6  // top odd > best
	VBLENDVPS   Y6, Y3, Y7, Y7
	VANDPS      Y13, Y6, Y8
	VCMPPS      $0x1e, Y7, Y4, Y6  // bottom even > best
	VBLENDVPS   Y6, Y4, Y7, Y7
	VBLENDVPS   Y6, Y12, Y8, Y8
	VCMPPS      $0x1e, Y7, Y5, Y6  // bottom odd > best
	VBLENDVPS   Y6, Y5, Y7, Y7
	VBLENDVPS   Y6, Y11, Y8, Y8
	VMOVUPS     Y7, (DI)
	ADDQ        $32, DI
	TESTQ       SI, SI
	JZ          pnext
	VMOVQ       R12, X9
	VPINSRQ     $1, R13, X9, X9
	VMOVQ       DX, X0
	VPINSRQ     $1, BX, X0, X0
	VINSERTI128 $1, X0, Y9, Y9
	VPSRLQ      $2, Y9, Y9
	VPSHUFD     $0xa0, Y9, Y9
	VPADDD      Y10, Y9, Y9
	VPADDD      Y8, Y9, Y9
	VMOVDQU     Y9, (SI)
	ADDQ        $32, SI

pnext:
	NEXTQUARTER(R12)
	DECQ CX
	JNZ  pgroup
	VZEROUPPER
	RET

// func reluKernel(dst, src *float32, n int)
//
// keep = int32(pattern + 0x7fffffff) < int32(0xff800000): pattern − 1 below
// +Inf's pattern as unsigned numbers, compared signed with both sign bits
// flipped.
TEXT ·reluKernel(SB), NOSPLIT, $0-24
	MOVQ     dst+0(FP), DI
	MOVQ     src+8(FP), SI
	MOVQ     n+16(FP), CX
	VPCMPEQD Y0, Y0, Y0
	VPSRLD   $1, Y0, Y1
	VPSLLD   $23, Y0, Y2

reluloop:
	VMOVDQU  (SI), Y3
	VPADDD   Y1, Y3, Y4
	VPCMPGTD Y4, Y2, Y4
	VPAND    Y3, Y4, Y4
	VMOVDQU  Y4, (DI)
	ADDQ     $32, SI
	ADDQ     $32, DI
	SUBQ     $8, CX
	JNZ      reluloop
	VZEROUPPER
	RET

// func reluGradKernel(dst, dy, out *float32, n int)
//
// keep = out's pattern is not 0.
TEXT ·reluGradKernel(SB), NOSPLIT, $0-32
	MOVQ  dst+0(FP), DI
	MOVQ  dy+8(FP), SI
	MOVQ  out+16(FP), AX
	MOVQ  n+24(FP), CX
	VPXOR Y0, Y0, Y0

relugloop:
	VMOVDQU  (AX), Y1
	VPCMPEQD Y0, Y1, Y1
	VPANDN   (SI), Y1, Y1
	VMOVDQU  Y1, (DI)
	ADDQ     $32, SI
	ADDQ     $32, DI
	ADDQ     $32, AX
	SUBQ     $8, CX
	JNZ      relugloop
	VZEROUPPER
	RET

// func maskCopyKernel(dst, src *float32, mask *uint32, period, n int)
//
// DX is the mask offset in bytes, R9 the period in bytes; CMOV wraps DX to
// 0 at the period.
TEXT ·maskCopyKernel(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ mask+16(FP), R8
	MOVQ period+24(FP), R9
	MOVQ n+32(FP), CX
	SHLQ $2, R9
	XORQ DX, DX
	XORQ R10, R10

mcloop:
	VMOVUPS  (SI), Y0
	VANDPS   (R8)(DX*1), Y0, Y0
	VMOVUPS  Y0, (DI)
	ADDQ     $32, SI
	ADDQ     $32, DI
	ADDQ     $32, DX
	CMPQ     DX, R9
	CMOVQEQ  R10, DX
	SUBQ     $8, CX
	JNZ      mcloop
	VZEROUPPER
	RET

// func maskAddKernel(dst, src *float32, mask *uint32, period, n int)
TEXT ·maskAddKernel(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ mask+16(FP), R8
	MOVQ period+24(FP), R9
	MOVQ n+32(FP), CX
	SHLQ $2, R9
	XORQ DX, DX
	XORQ R10, R10

maloop:
	VMOVUPS  (SI), Y0
	VANDPS   (R8)(DX*1), Y0, Y0
	VADDPS   (DI), Y0, Y0
	VMOVUPS  Y0, (DI)
	ADDQ     $32, SI
	ADDQ     $32, DI
	ADDQ     $32, DX
	CMPQ     DX, R9
	CMOVQEQ  R10, DX
	SUBQ     $8, CX
	JNZ      maloop
	VZEROUPPER
	RET

// func addBiasKernel(dst, src *float32, rows, hw, stride int, b float32)
//
// Per element: v + b; Y12 masks a run's tail. src runs end to end, dst runs
// stride elements apart.
TEXT ·addBiasKernel(SB), NOSPLIT, $0-44
	MOVQ         dst+0(FP), DI
	MOVQ         src+8(FP), SI
	MOVQ         rows+16(FP), CX
	MOVQ         hw+24(FP), R8
	MOVQ         stride+32(FP), R11
	SHLQ         $2, R11
	VBROADCASTSS b+40(FP), Y8
	MOVQ         R8, DX
	SHRQ         $3, DX
	ANDQ         $7, R8
	SHLQ         $2, R8
	LEAQ         tailMask<>+32(SB), R9
	SUBQ         R8, R9
	VMOVDQU      (R9), Y12

brow:
	MOVQ  DX, BX
	XORQ  R10, R10
	TESTQ BX, BX
	JZ    btail

bgroup:
	VMOVUPS (SI)(R10*1), Y0
	VADDPS  Y8, Y0, Y0
	VMOVUPS Y0, (DI)(R10*1)
	ADDQ    $32, R10
	DECQ    BX
	JNZ     bgroup

btail:
	TESTQ      R8, R8
	JZ         bnext
	VMASKMOVPS (SI)(R10*1), Y12, Y0
	VADDPS     Y8, Y0, Y0
	VMASKMOVPS Y0, Y12, (DI)(R10*1)
	ADDQ       R8, R10

bnext:
	ADDQ R10, SI
	ADDQ R11, DI
	DECQ CX
	JNZ  brow
	VZEROUPPER
	RET

// func lstmGateGradKernel(dz, dc, gates, tanhC, cPrev, dh *float32, rows, h int)
//
// Per element, in LSTMGateGrad's order, each operation its own instruction:
// Y0 = t, Y1 = dh, Y2 = o, Y6 = i, Y7 = g, Y9 = f, Y4 = c and then the
// carried dc; Y15 = 1, Y14 masks a row's tail. AX and DI walk a row's i
// section of gates and dz, the other sections R10 = h and 2·R10 bytes on
// and R11 = 3h bytes on, which is also the step from the end of one row's
// i section to the start of the next row; SI, BX, R12 and DX walk dc,
// tanhC, cPrev and dh.
TEXT ·lstmGateGradKernel(SB), NOSPLIT, $0-64
	MOVQ         dz+0(FP), DI
	MOVQ         dc+8(FP), SI
	MOVQ         gates+16(FP), AX
	MOVQ         tanhC+24(FP), BX
	MOVQ         cPrev+32(FP), R12
	MOVQ         dh+40(FP), DX
	MOVQ         rows+48(FP), R8
	MOVQ         h+56(FP), R9
	LEAQ         (R9*4), R10
	LEAQ         (R10)(R10*2), R11
	MOVQ         R9, R13
	SHRQ         $3, R9
	ANDQ         $7, R13
	SHLQ         $2, R13
	LEAQ         tailMask<>+32(SB), CX
	SUBQ         R13, CX
	VMOVDQU      (CX), Y14
	MOVL         $0x3f800000, CX
	VMOVD        CX, X15
	VBROADCASTSS X15, Y15

lrow:
	MOVQ  R9, CX
	TESTQ CX, CX
	JZ    ltail

lgroup:
	VMOVUPS (BX), Y0
	VMOVUPS (DX), Y1
	VMOVUPS (AX)(R11*1), Y2
	VMULPS  Y0, Y0, Y3       // t·t
	VSUBPS  Y3, Y15, Y3      // 1 − t·t
	VMULPS  Y2, Y1, Y4       // dh·o
	VMULPS  Y3, Y4, Y4
	VADDPS  (SI), Y4, Y4     // c
	VMULPS  Y0, Y1, Y5       // dh·t
	VMULPS  Y2, Y5, Y5
	VSUBPS  Y2, Y15, Y3      // 1 − o
	VMULPS  Y3, Y5, Y5
	VMOVUPS Y5, (DI)(R11*1)
	VMOVUPS (AX), Y6
	VMOVUPS (AX)(R10*2), Y7
	VMULPS  Y7, Y4, Y8       // c·g
	VMULPS  Y6, Y8, Y8
	VSUBPS  Y6, Y15, Y3      // 1 − i
	VMULPS  Y3, Y8, Y8
	VMOVUPS Y8, (DI)
	VMOVUPS (AX)(R10*1), Y9
	VMULPS  (R12), Y4, Y10   // c·cPrev
	VMULPS  Y9, Y10, Y10
	VSUBPS  Y9, Y15, Y3      // 1 − f
	VMULPS  Y3, Y10, Y10
	VMOVUPS Y10, (DI)(R10*1)
	VMULPS  Y6, Y4, Y11      // c·i
	VMULPS  Y7, Y7, Y12      // g·g
	VSUBPS  Y12, Y15, Y12    // 1 − g·g
	VMULPS  Y12, Y11, Y11
	VMOVUPS Y11, (DI)(R10*2)
	VMULPS  Y9, Y4, Y4       // c·f
	VMOVUPS Y4, (SI)
	ADDQ    $32, AX
	ADDQ    $32, DI
	ADDQ    $32, SI
	ADDQ    $32, BX
	ADDQ    $32, R12
	ADDQ    $32, DX
	DECQ    CX
	JNZ     lgroup

ltail:
	TESTQ      R13, R13
	JZ         lnext
	VMASKMOVPS (BX), Y14, Y0
	VMASKMOVPS (DX), Y14, Y1
	VMASKMOVPS (AX)(R11*1), Y14, Y2
	VMULPS     Y0, Y0, Y3
	VSUBPS     Y3, Y15, Y3
	VMULPS     Y2, Y1, Y4
	VMULPS     Y3, Y4, Y4
	VMASKMOVPS (SI), Y14, Y13
	VADDPS     Y13, Y4, Y4
	VMULPS     Y0, Y1, Y5
	VMULPS     Y2, Y5, Y5
	VSUBPS     Y2, Y15, Y3
	VMULPS     Y3, Y5, Y5
	VMASKMOVPS Y5, Y14, (DI)(R11*1)
	VMASKMOVPS (AX), Y14, Y6
	VMASKMOVPS (AX)(R10*2), Y14, Y7
	VMULPS     Y7, Y4, Y8
	VMULPS     Y6, Y8, Y8
	VSUBPS     Y6, Y15, Y3
	VMULPS     Y3, Y8, Y8
	VMASKMOVPS Y8, Y14, (DI)
	VMASKMOVPS (AX)(R10*1), Y14, Y9
	VMASKMOVPS (R12), Y14, Y13
	VMULPS     Y13, Y4, Y10
	VMULPS     Y9, Y10, Y10
	VSUBPS     Y9, Y15, Y3
	VMULPS     Y3, Y10, Y10
	VMASKMOVPS Y10, Y14, (DI)(R10*1)
	VMULPS     Y6, Y4, Y11
	VMULPS     Y7, Y7, Y12
	VSUBPS     Y12, Y15, Y12
	VMULPS     Y12, Y11, Y11
	VMASKMOVPS Y11, Y14, (DI)(R10*2)
	VMULPS     Y9, Y4, Y4
	VMASKMOVPS Y4, Y14, (SI)
	ADDQ       R13, AX
	ADDQ       R13, DI
	ADDQ       R13, SI
	ADDQ       R13, BX
	ADDQ       R13, R12
	ADDQ       R13, DX

lnext:
	ADDQ R11, AX
	ADDQ R11, DI
	DECQ R8
	JNZ  lrow
	VZEROUPPER
	RET

// func rowMaxKernel(row *float32, n int) (m float32, nan bool)
//
// Y0 is the running VMAXPS of the row's groups of eight, the last group
// overlapping the one before it when n is not a multiple of 8 (a maximum
// does not mind seeing an element twice); Y1 collects each group's
// unordered compare with itself. n ≥ 8.
TEXT ·rowMaxKernel(SB), NOSPLIT, $0-21
	MOVQ    row+0(FP), SI
	MOVQ    n+8(FP), CX
	LEAQ    -32(SI)(CX*4), DX
	VMOVUPS (SI), Y0
	VCMPPS  $3, Y0, Y0, Y1
	ADDQ    $32, SI
	SUBQ    $8, CX
	JZ      mreduce
	SUBQ    $8, CX
	JL      mlast

mgroup:
	VMOVUPS (SI), Y2
	VCMPPS  $3, Y2, Y2, Y3
	VORPS   Y3, Y1, Y1
	VMAXPS  Y2, Y0, Y0
	ADDQ    $32, SI
	SUBQ    $8, CX
	JGE     mgroup

mlast:
	ADDQ    $8, CX
	JZ      mreduce
	VMOVUPS (DX), Y2
	VCMPPS  $3, Y2, Y2, Y3
	VORPS   Y3, Y1, Y1
	VMAXPS  Y2, Y0, Y0

mreduce:
	VEXTRACTF128 $1, Y0, X2
	VMAXPS       X2, X0, X0
	VMOVHLPS     X0, X2, X2
	VMAXPS       X2, X0, X0
	VSHUFPS      $1, X0, X0, X2
	VMAXPS       X2, X0, X0
	VMOVSS       X0, m+16(FP)
	VMOVMSKPS    Y1, AX
	TESTL        AX, AX
	SETNE        nan+20(FP)
	VZEROUPPER
	RET

// func softmaxScaleKernel(dst *float32, exps *float64, n int, sum float64, scale float32)
//
// Per element: float32(e / sum)·scale, a VDIVPD, a VCVTPD2PS and a VMULPS;
// n a multiple of 8.
TEXT ·softmaxScaleKernel(SB), NOSPLIT, $0-36
	MOVQ         dst+0(FP), DI
	MOVQ         exps+8(FP), SI
	MOVQ         n+16(FP), CX
	VBROADCASTSD sum+24(FP), Y8
	VBROADCASTSS scale+32(FP), Y9

sloop:
	VMOVUPD     (SI), Y0
	VDIVPD      Y8, Y0, Y0
	VMOVUPD     32(SI), Y1
	VDIVPD      Y8, Y1, Y1
	VCVTPD2PSY  Y0, X0
	VCVTPD2PSY  Y1, X1
	VINSERTF128 $1, X1, Y0, Y0
	VMULPS      Y9, Y0, Y0
	VMOVUPS     Y0, (DI)
	ADDQ        $64, SI
	ADDQ        $32, DI
	SUBQ        $8, CX
	JNZ         sloop
	VZEROUPPER
	RET
