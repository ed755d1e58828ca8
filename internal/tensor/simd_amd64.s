//go:build amd64 && !purego

#include "textflag.h"

// SSE2 kernels for the float32 hot loops, and the AVX/AVX2 kernels of the two
// A2SGD passes. See simd_amd64.go for the bitwise-identity contract with the
// scalar fallbacks.

// func addKernel(dst, src *float32, n int)
// dst[i] += src[i]
TEXT ·addKernel(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX

add16:
	CMPQ CX, $16
	JLT  add4
	MOVUPS (DI), X0
	MOVUPS 16(DI), X1
	MOVUPS 32(DI), X2
	MOVUPS 48(DI), X3
	MOVUPS (SI), X4
	MOVUPS 16(SI), X5
	MOVUPS 32(SI), X6
	MOVUPS 48(SI), X7
	ADDPS  X4, X0
	ADDPS  X5, X1
	ADDPS  X6, X2
	ADDPS  X7, X3
	MOVUPS X0, (DI)
	MOVUPS X1, 16(DI)
	MOVUPS X2, 32(DI)
	MOVUPS X3, 48(DI)
	ADDQ   $64, DI
	ADDQ   $64, SI
	SUBQ   $16, CX
	JMP    add16

add4:
	CMPQ CX, $4
	JLT  add1
	MOVUPS (DI), X0
	MOVUPS (SI), X4
	ADDPS  X4, X0
	MOVUPS X0, (DI)
	ADDQ   $16, DI
	ADDQ   $16, SI
	SUBQ   $4, CX
	JMP    add4

add1:
	CMPQ CX, $0
	JLE  addDone
	MOVSS (DI), X0
	MOVSS (SI), X4
	ADDSS X4, X0
	MOVSS X0, (DI)
	ADDQ  $4, DI
	ADDQ  $4, SI
	DECQ  CX
	JMP   add1

addDone:
	RET

// func axpyKernel(dst *float32, a float32, src *float32, n int)
// dst[i] += a*src[i], computed as mul-then-add (two roundings, no FMA) to
// match the scalar path exactly.
TEXT ·axpyKernel(SB), NOSPLIT, $0-32
	MOVQ   dst+0(FP), DI
	MOVSS  a+8(FP), X8
	SHUFPS $0x00, X8, X8
	MOVQ   src+16(FP), SI
	MOVQ   n+24(FP), CX

axpy8:
	CMPQ CX, $8
	JLT  axpy4
	MOVUPS (SI), X1
	MOVUPS 16(SI), X3
	MULPS  X8, X1
	MULPS  X8, X3
	MOVUPS (DI), X0
	MOVUPS 16(DI), X2
	ADDPS  X1, X0
	ADDPS  X3, X2
	MOVUPS X0, (DI)
	MOVUPS X2, 16(DI)
	ADDQ   $32, DI
	ADDQ   $32, SI
	SUBQ   $8, CX
	JMP    axpy8

axpy4:
	CMPQ CX, $4
	JLT  axpy1
	MOVUPS (SI), X1
	MULPS  X8, X1
	MOVUPS (DI), X0
	ADDPS  X1, X0
	MOVUPS X0, (DI)
	ADDQ   $16, DI
	ADDQ   $16, SI
	SUBQ   $4, CX
	JMP    axpy4

axpy1:
	CMPQ CX, $0
	JLE  axpyDone
	MOVSS (SI), X1
	MULSS X8, X1
	MOVSS (DI), X0
	ADDSS X1, X0
	MOVSS X0, (DI)
	ADDQ  $4, DI
	ADDQ  $4, SI
	DECQ  CX
	JMP   axpy1

axpyDone:
	RET

// func scaleKernel(v *float32, c float32, n int)
// v[i] *= c
TEXT ·scaleKernel(SB), NOSPLIT, $0-24
	MOVQ   v+0(FP), DI
	MOVSS  c+8(FP), X8
	SHUFPS $0x00, X8, X8
	MOVQ   n+16(FP), CX

scale8:
	CMPQ CX, $8
	JLT  scale4
	MOVUPS (DI), X0
	MOVUPS 16(DI), X1
	MULPS  X8, X0
	MULPS  X8, X1
	MOVUPS X0, (DI)
	MOVUPS X1, 16(DI)
	ADDQ   $32, DI
	SUBQ   $8, CX
	JMP    scale8

scale4:
	CMPQ CX, $4
	JLT  scale1
	MOVUPS (DI), X0
	MULPS  X8, X0
	MOVUPS X0, (DI)
	ADDQ   $16, DI
	SUBQ   $4, CX
	JMP    scale4

scale1:
	CMPQ CX, $0
	JLE  scaleDone
	MOVSS (DI), X0
	MULSS X8, X0
	MOVSS X0, (DI)
	ADDQ  $4, DI
	DECQ  CX
	JMP   scale1

scaleDone:
	RET

DATA absMask32<>+0(SB)/4, $0x7fffffff
DATA absMask32<>+4(SB)/4, $0x7fffffff
DATA absMask32<>+8(SB)/4, $0x7fffffff
DATA absMask32<>+12(SB)/4, $0x7fffffff
GLOBL absMask32<>(SB), RODATA|NOPTR, $16

DATA absMask64<>+0(SB)/8, $0x7fffffffffffffff
DATA absMask64<>+8(SB)/8, $0x7fffffffffffffff
GLOBL absMask64<>(SB), RODATA|NOPTR, $16

// func qsgdFieldsKernel(fields *uint32, g *float32, rnd *float64, n int, norm float64, s float64)
//
// Two elements per iteration, replicating the scalar math exactly:
//   scaled = float64(|g[i]|) / norm * s      (CVTPS2PD, ANDPD, DIVPD, MULPD)
//   level  = trunc(scaled)                   (CVTTPD2PL)
//   level++ when rnd[i] < scaled - level     (CVTPL2PD, SUBPD, CMPPD lt)
//   level  = min(level, s)                   (PCMPGTL select)
//   fields[i] = signbit(g[i]) | level<<1
// n must be even.
TEXT ·qsgdFieldsKernel(SB), NOSPLIT, $0-48
	MOVQ fields+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ rnd+16(FP), DX
	MOVQ n+24(FP), CX

	// X8 = [norm, norm], X9 = [s, s], X10 = [int32(s) x4]
	MOVSD    norm+32(FP), X8
	UNPCKLPD X8, X8
	MOVSD    s+40(FP), X9
	UNPCKLPD X9, X9
	CVTTSD2SL s+40(FP), AX
	MOVQ     AX, X10
	PSHUFD   $0x00, X10, X10

qf2:
	CMPQ CX, $2
	JLT  qfDone

	MOVSD    (SI), X0             // two float32 values in lanes 0,1
	CVTPS2PD X0, X1               // X1 = [f64(x0), f64(x1)]
	ANDPD    absMask64<>(SB), X1  // |x|
	DIVPD    X8, X1               // |x| / norm
	MULPD    X9, X1               // scaled = |x|/norm*s
	CVTTPD2PL X1, X2              // level = trunc(scaled) in dword lanes 0,1
	CVTPL2PD X2, X3               // float64(level)
	SUBPD    X3, X1               // frac = scaled - level
	MOVOU    (DX), X4             // rnd pair (as raw bits)
	CMPPD    X1, X4, $1           // X4 = (rnd < frac) ? ~0 : 0, per qword lane
	PSHUFD   $0x88, X4, X4        // pack qword masks into dword lanes 0,1
	PSUBL    X4, X2               // level -= mask  (mask = -1 => level++)

	// clamp: level = min(level, s)
	MOVO     X2, X5
	PCMPGTL  X10, X5              // X5 = (level > s) ? ~0 : 0
	MOVO     X5, X6
	PANDN    X2, X6               // X6 = level where not greater
	PAND     X10, X5              // X5 = s where greater
	POR      X5, X6               // clamped level

	// field = signbit | level<<1
	MOVO     X0, X7
	PSRLL    $31, X7
	PSLLL    $1, X6
	POR      X7, X6
	MOVQ     X6, (DI)             // two packed dword fields

	ADDQ $8, SI
	ADDQ $16, DX
	ADDQ $8, DI
	SUBQ $2, CX
	JMP  qf2

qfDone:
	RET

// func absKernel(dst, src *float32, n int)
// dst[i] = |src[i]| by clearing the sign bit (ANDPS) — feeds Top-K's heap
// comparisons; -0.0 maps to +0.0, indistinguishable under ordered compares.
TEXT ·absKernel(SB), NOSPLIT, $0-24
	MOVQ   dst+0(FP), DI
	MOVQ   src+8(FP), SI
	MOVQ   n+16(FP), CX
	MOVUPS absMask32<>(SB), X7

abs16:
	CMPQ CX, $16
	JLT  abs4
	MOVUPS (SI), X0
	MOVUPS 16(SI), X1
	MOVUPS 32(SI), X2
	MOVUPS 48(SI), X3
	ANDPS  X7, X0
	ANDPS  X7, X1
	ANDPS  X7, X2
	ANDPS  X7, X3
	MOVUPS X0, (DI)
	MOVUPS X1, 16(DI)
	MOVUPS X2, 32(DI)
	MOVUPS X3, 48(DI)
	ADDQ   $64, DI
	ADDQ   $64, SI
	SUBQ   $16, CX
	JMP    abs16

abs4:
	CMPQ CX, $4
	JLT  abs1
	MOVUPS (SI), X0
	ANDPS  X7, X0
	MOVUPS X0, (DI)
	ADDQ   $16, DI
	ADDQ   $16, SI
	SUBQ   $4, CX
	JMP    abs4

abs1:
	CMPQ CX, $0
	JLE  absDone
	MOVSS (SI), X0
	ANDPS X7, X0
	MOVSS X0, (DI)
	ADDQ  $4, DI
	ADDQ  $4, SI
	DECQ  CX
	JMP   abs1

absDone:
	RET

// func gaussTailKernel(dst *int32, src *float32, n int, base int32, mu, tau float64) int64
//
// Two elements per iteration: d = |float64(x) - mu| (CVTPS2PD, SUBPD,
// ANDPD), select when tau < d (CMPPD lt with tau as destination, so a NaN
// distance never selects — the scalar predicate d > tau exactly). Selection
// is expected sparse (~0.1%), so a MOVMSKPD fast-skip covers the common
// all-reject pair and the stores stay scalar. n must be even.
TEXT ·gaussTailKernel(SB), NOSPLIT, $0-56
	MOVQ     dst+0(FP), DI
	MOVQ     src+8(FP), SI
	MOVQ     n+16(FP), CX
	MOVL     base+24(FP), R8      // next flattened index
	MOVSD    mu+32(FP), X8
	UNPCKLPD X8, X8
	MOVSD    tau+40(FP), X9
	UNPCKLPD X9, X9
	XORQ     R9, R9               // selected count

gt2:
	CMPQ CX, $2
	JLT  gtDone
	MOVSD    (SI), X0             // two float32 values in lanes 0,1
	CVTPS2PD X0, X1               // [f64(x0), f64(x1)]
	SUBPD    X8, X1               // x - mu
	ANDPD    absMask64<>(SB), X1  // d = |x - mu|
	MOVAPS   X9, X2
	CMPPD    X1, X2, $1           // X2 = (tau < d) ? ~0 : 0, per qword lane
	MOVMSKPD X2, AX
	TESTQ    AX, AX
	JZ       gtSkip
	TESTQ    $1, AX
	JZ       gtHigh
	MOVL     R8, (DI)(R9*4)
	INCQ     R9

gtHigh:
	TESTQ $2, AX
	JZ    gtSkip
	LEAL  1(R8), R10
	MOVL  R10, (DI)(R9*4)
	INCQ  R9

gtSkip:
	ADDL $2, R8
	ADDQ $8, SI
	SUBQ $2, CX
	JMP  gt2

gtDone:
	MOVQ R9, ret+48(FP)
	RET

// func eliasPackKernel(words *uint32, fields *uint32, n int, bitPos uint64) uint64
//
// Batched Elias-gamma+sign writer (see tensor.EliasGammaSignPack for the
// stream contract): per field, BSR finds the bit length of level+1, the
// whole gamma(level+1)[+sign] code is assembled in a register and ORed into
// the MSB-first word stream with one unconditional two-word store. Codes are
// at most 30 bits (level+1 < 1<<15, the constructor guard), so the pair
// store never reaches past one spare word.
TEXT ·eliasPackKernel(SB), NOSPLIT, $0-40
	MOVQ words+0(FP), DI
	MOVQ fields+8(FP), SI
	MOVQ n+16(FP), DX
	MOVQ bitPos+24(FP), BX

epLoop:
	MOVL (SI), AX        // f = sign | level<<1
	MOVL AX, R8
	ANDL $1, R8          // sign
	SHRL $1, AX          // level
	LEAL 1(AX), R9       // v = level + 1
	BSRL R9, R10         // n0 = bitlen(v) - 1
	MOVL R10, R11
	SHLL $1, R11
	INCL R11             // width = 2*n0 + 1
	MOVL R9, R12         // code = v
	TESTL AX, AX
	JZ   epNoSign
	SHLQ $1, R12         // append sign bit when level > 0
	ORQ  R8, R12
	INCL R11

epNoSign:
	MOVQ BX, R13
	SHRQ $5, R13         // w = bitPos / 32
	MOVQ $64, CX
	SUBQ R11, CX
	MOVQ BX, R9
	ANDQ $31, R9
	SUBQ R9, CX          // shift = 64 - width - (bitPos % 32)
	SHLQ CX, R12         // code aligned to the top of a 64-bit window
	MOVQ R12, R9
	SHRQ $32, R9
	ORL  R9, (DI)(R13*4)  // high dword into words[w]
	ORL  R12, 4(DI)(R13*4) // low dword into words[w+1]
	ADDQ R11, BX         // bitPos += width
	ADDQ $4, SI
	DECQ DX
	JNZ  epLoop

	MOVQ BX, ret+32(FP)
	RET

// func signedMeansKernelAVX2(v *float32, n int) (sp, sn float64, nNeg int64)
//
// The lane kernel of the reduction specification (package comment) for n > 0
// elements, n a multiple of 8: element i of each group of eight adds into
// float64 lane i of its class, and a sum's eight lanes sit in two registers —
// Y0, Y1 hold Σ⁺ lanes 0-3 and 4-7, Y2, Y3 the Σ⁻ lanes — so a group is two
// converts from memory and four independent adds. The class mask is the
// ordered compare 0 <= x (true for −0.0, false for NaN — Go's x >= 0); each
// element goes into its own class's sum and +0.0 into the other's, which
// changes no bit of a sum that is never −0. Y4, Y5 count the non-negative
// elements (mask qword = −1, subtracted). The lanes fold by the halving tree
// l[j] + l[j+4], l[j] + l[j+2], l[0] + l[1]. AVX2 only for the 256-bit
// integer subtract that counts.
TEXT ·signedMeansKernelAVX2(SB), NOSPLIT, $0-40
	MOVQ   v+0(FP), SI
	MOVQ   n+8(FP), CX
	MOVQ   CX, DX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4 // non-negative count, 4 × int64
	VXORPD Y5, Y5, Y5
	VXORPD Y15, Y15, Y15

sma8:
	VCVTPS2PD (SI), Y6
	VCVTPS2PD 16(SI), Y7
	VCMPPD    $2, Y6, Y15, Y8 // 0 <= x
	VCMPPD    $2, Y7, Y15, Y9
	VANDPD    Y6, Y8, Y10     // x where 0 <= x, +0.0 elsewhere
	VANDPD    Y7, Y9, Y11
	VANDNPD   Y6, Y8, Y12     // x elsewhere
	VANDNPD   Y7, Y9, Y13
	VADDPD    Y10, Y0, Y0
	VADDPD    Y11, Y1, Y1
	VSUBPD    Y12, Y2, Y2
	VSUBPD    Y13, Y3, Y3
	VPSUBQ    Y8, Y4, Y4
	VPSUBQ    Y9, Y5, Y5
	ADDQ      $32, SI
	SUBQ      $8, CX
	JNZ       sma8

	VADDPD       Y1, Y0, Y0 // l[j] + l[j+4]
	VEXTRACTF128 $1, Y0, X1
	VADDPD       X1, X0, X0 // l[j] + l[j+2]
	VPERMILPD    $1, X0, X1
	VADDSD       X1, X0, X0 // l[0] + l[1]
	VMOVSD       X0, sp+16(FP)
	VADDPD       Y3, Y2, Y2
	VEXTRACTF128 $1, Y2, X3
	VADDPD       X3, X2, X2
	VPERMILPD    $1, X2, X3
	VADDSD       X3, X2, X2
	VMOVSD       X2, sn+24(FP)
	VPADDQ       Y5, Y4, Y4
	VEXTRACTI128 $1, Y4, X5
	VPADDQ       X5, X4, X4
	VPSHUFD      $0x4E, X4, X5
	VPADDQ       X5, X4, X4
	VMOVQ        X4, AX
	SUBQ         AX, DX // n − n⁺
	MOVQ         DX, nNeg+32(FP)
	VZEROUPPER
	RET

// signMask32 is the float32 sign bit, broadcast to every lane.
DATA signMask32<>+0(SB)/4, $0x80000000
GLOBL signMask32<>(SB), RODATA|NOPTR, $4

// func signedShiftKernelAVX(v *float32, n int, subPos, subNeg, addPos, addNeg float32)
//
// v[i] = (v[i] - s) + a for n a multiple of 8, with (s, a) = (subPos, addPos)
// where 0 <= v[i] and (-subNeg, -addNeg) elsewhere; x - (-s) is x + s
// exactly, so the negative class keeps the scalar rule's two roundings. The
// class mask is the ordered compare 0 <= x: false for NaN (negative class)
// and true for -0.0, Go's x >= 0. The blend is neg ^ (mask & (pos ^ neg)),
// with no branch to mispredict: Y8/Y10 hold pos^neg, Y9/Y11 hold neg. Sixteen
// lanes a step, then one group of eight. AVX only.
TEXT ·signedShiftKernelAVX(SB), NOSPLIT, $0-32
	MOVQ         v+0(FP), DI
	MOVQ         n+8(FP), CX
	VXORPS       Y7, Y7, Y7
	VBROADCASTSS signMask32<>(SB), Y6
	VBROADCASTSS subPos+16(FP), Y8
	VBROADCASTSS subNeg+20(FP), Y9
	VBROADCASTSS addPos+24(FP), Y10
	VBROADCASTSS addNeg+28(FP), Y11
	VXORPS       Y6, Y9, Y9    // -subNeg
	VXORPS       Y6, Y11, Y11  // -addNeg
	VXORPS       Y9, Y8, Y8    // subPos ^ -subNeg
	VXORPS       Y11, Y10, Y10 // addPos ^ -addNeg

ssa16:
	CMPQ    CX, $16
	JLT     ssa8
	VMOVUPS (DI), Y0
	VMOVUPS 32(DI), Y3
	VCMPPS  $2, Y0, Y7, Y1 // 0 <= x
	VCMPPS  $2, Y3, Y7, Y4
	VANDPS  Y10, Y1, Y2
	VANDPS  Y10, Y4, Y5
	VANDPS  Y8, Y1, Y1
	VANDPS  Y8, Y4, Y4
	VXORPS  Y9, Y1, Y1     // s
	VXORPS  Y9, Y4, Y4
	VXORPS  Y11, Y2, Y2    // a
	VXORPS  Y11, Y5, Y5
	VSUBPS  Y1, Y0, Y0
	VSUBPS  Y4, Y3, Y3
	VADDPS  Y2, Y0, Y0
	VADDPS  Y5, Y3, Y3
	VMOVUPS Y0, (DI)
	VMOVUPS Y3, 32(DI)
	ADDQ    $64, DI
	SUBQ    $16, CX
	JMP     ssa16

ssa8:
	CMPQ    CX, $8
	JLT     ssaDone
	VMOVUPS (DI), Y0
	VCMPPS  $2, Y0, Y7, Y1
	VANDPS  Y10, Y1, Y2
	VANDPS  Y8, Y1, Y1
	VXORPS  Y9, Y1, Y1
	VXORPS  Y11, Y2, Y2
	VSUBPS  Y1, Y0, Y0
	VADDPS  Y2, Y0, Y0
	VMOVUPS Y0, (DI)

ssaDone:
	VZEROUPPER
	RET

// func nonFiniteKernelAVX2(v *float32, n int) bool
//
// Per block of eight: AND with the exponent mask, compare each lane's
// result with the mask (all ones where the exponent is all ones), and stop
// at the first block whose compare is not all zeros.
TEXT ·nonFiniteKernelAVX2(SB), NOSPLIT, $0-17
	MOVQ         v+0(FP), SI
	MOVQ         n+8(FP), CX
	MOVL         $0x7f800000, AX
	MOVQ         AX, X1
	VPBROADCASTD X1, Y1
	XORQ         AX, AX

nf8Loop:
	VPAND    (SI)(AX*4), Y1, Y0
	VPCMPEQD Y1, Y0, Y0
	VPTEST   Y0, Y0
	JNZ      nf8Found
	ADDQ     $8, AX
	CMPQ     AX, CX
	JLT      nf8Loop
	MOVB     $0, ret+16(FP)
	VZEROUPPER
	RET

nf8Found:
	MOVB $1, ret+16(FP)
	VZEROUPPER
	RET

// func nonFiniteKernelAVX512(v *float32, n int) bool
//
// nonFiniteKernelAVX2 on sixteen lanes: the compare writes K1, and
// KORTESTW tests it.
TEXT ·nonFiniteKernelAVX512(SB), NOSPLIT, $0-17
	MOVQ         v+0(FP), SI
	MOVQ         n+8(FP), CX
	MOVL         $0x7f800000, AX
	VPBROADCASTD AX, Z1
	XORQ         AX, AX

nf16Loop:
	VPANDD   (SI)(AX*4), Z1, Z0
	VPCMPEQD Z1, Z0, K1
	KORTESTW K1, K1
	JNZ      nf16Found
	ADDQ     $16, AX
	CMPQ     AX, CX
	JLT      nf16Loop
	MOVB     $0, ret+16(FP)
	VZEROUPPER
	RET

nf16Found:
	MOVB $1, ret+16(FP)
	VZEROUPPER
	RET
