//go:build amd64 && !purego

#include "textflag.h"

// AVX2+FMA and AVX-512 transcendental kernels. See trans_amd64.go for the
// contracts and the package comment ("Transcendentals") for the operation
// sequences and the rounding test.

// CONST4 defines sym as four float64 (or int64) copies of v, one YMM operand.
#define CONST4(sym, v) \
	DATA sym<>+0(SB)/8, v; \
	DATA sym<>+8(SB)/8, v; \
	DATA sym<>+16(SB)/8, v; \
	DATA sym<>+24(SB)/8, v; \
	GLOBL sym<>(SB), RODATA|NOPTR, $32

// The constants of math.Exp on amd64 (exp_amd64.s), as written there;
// ExpShift's kernels use all of them, Sigmoid's and Tanh's the reduction
// (expLog2e, expLn2U, expLn2L).
CONST4(expLog2e, $1.4426950408889634073599246810018920)
CONST4(expLn2U, $0.69314718055966295651160180568695068359375)
CONST4(expLn2L, $0.28235290563031577122588448175013436025525412068e-12)
CONST4(expSixteenth, $0.0625)
CONST4(expC8, $2.4801587301587301587e-5)
CONST4(expC7, $1.9841269841269841270e-4)
CONST4(expC6, $1.3888888888888888889e-3)
CONST4(expC5, $8.3333333333333333333e-3)
CONST4(expC4, $4.1666666666666666667e-2)
CONST4(expC3, $1.6666666666666666667e-1)
CONST4(expHalf, $0.5)
CONST4(expBias, $0x3FF)

CONST4(transOne, $1.0)
CONST4(transTwo, $2.0)
CONST4(transMaxArg, $700.0)
CONST4(transSign, $0x8000000000000000)
CONST4(transAbs, $0x7fffffffffffffff)

// The constants of Sigmoid's and Tanh's fast path and its rounding test,
// described before SIGMOID2Y. em1Cn is 1/n! rounded to float64, and
// transBias52 is 0x3FF ≪ 52.
CONST4(em1C13, $1.6059043836821613e-10)
CONST4(em1C12, $2.08767569878681e-09)
CONST4(em1C11, $2.505210838544172e-08)
CONST4(em1C10, $2.755731922398589e-07)
CONST4(em1C9, $2.7557319223985893e-06)
CONST4(em1C8, $2.48015873015873e-05)
CONST4(em1C7, $0.0001984126984126984)
CONST4(em1C6, $0.001388888888888889)
CONST4(em1C5, $0.008333333333333333)
CONST4(em1C4, $0.041666666666666664)
CONST4(em1C3, $0.16666666666666666)
CONST4(sigLo, $-40.0)
CONST4(sigHi, $88.0)
CONST4(tanhHi, $20.0)
CONST4(transMinusTwo, $-2.0)
CONST4(transMagic, $6755399441055744.0)
CONST4(transBias52, $0x3ff0000000000000)
CONST4(transTiny, $0x3810000000000000)
CONST4(transMidOff, $268434943)
CONST4(transMid29, $0x1fffffff)
CONST4(transMidThr, $536869886)

// EXPCORE sets the four lanes of x to exp(x) for |x| ≤ 700, with the
// operations of math.Exp's FMA path in its order: k = round(x·log2e), the
// two-part reduction x − k·LN2U − k·LN2L, the scaling by 1/16, the Taylor
// polynomial by Horner, four squarings as x·(x+2) (the last fused with its
// +1) and the multiply by 2^k. The range keeps k + 0x3FF inside (0, 0x7FF),
// so none of archExp's overflow or denormal tails applies. k (kx is its XMM
// half) and p are clobbered.
#define EXPCORE(x, k, kx, p) \
	VMULPD       expLog2e<>(SB), x, p; \
	VCVTPD2DQY   p, kx; \
	VCVTDQ2PD    kx, p; \
	VFNMADD231PD expLn2U<>(SB), p, x; \
	VFNMADD231PD expLn2L<>(SB), p, x; \
	VMULPD       expSixteenth<>(SB), x, x; \
	VMOVUPD      expC8<>(SB), p; \
	VFMADD213PD  expC7<>(SB), x, p; \
	VFMADD213PD  expC6<>(SB), x, p; \
	VFMADD213PD  expC5<>(SB), x, p; \
	VFMADD213PD  expC4<>(SB), x, p; \
	VFMADD213PD  expC3<>(SB), x, p; \
	VFMADD213PD  expHalf<>(SB), x, p; \
	VFMADD213PD  transOne<>(SB), x, p; \
	VMULPD       p, x, x; \
	VADDPD       transTwo<>(SB), x, p; \
	VMULPD       p, x, x; \
	VADDPD       transTwo<>(SB), x, p; \
	VMULPD       p, x, x; \
	VADDPD       transTwo<>(SB), x, p; \
	VMULPD       p, x, x; \
	VADDPD       transTwo<>(SB), x, p; \
	VFMADD213PD  transOne<>(SB), p, x; \
	VPMOVSXDQ    kx, k; \
	VPADDQ       expBias<>(SB), k, k; \
	VPSLLQ       $52, k, k; \
	VMULPD       k, x, x

// OUTOFRANGE jumps to done when a lane of x is NaN or beyond ±700; t is
// clobbered.
#define OUTOFRANGE(x, t, done) \
	VANDPD    transAbs<>(SB), x, t; \
	VCMPPD    $0x16, transMaxArg<>(SB), t, t; \
	VMOVMSKPD t, BX; \
	TESTL     BX, BX; \
	JNZ       done

// The fast path of Sigmoid and Tanh, per float64 lane (package comment,
// "Transcendentals"). With a the argument of exp,
//
//	k = round-to-nearest-even(a·log2e); s = 2^k
//	r = a − k·LN2U − k·LN2L, each one fused multiply-add (k·LN2U is exact)
//	expm1(r) = r·(E(r²) + r·O(r²)), E and O the even and odd halves of
//	  1 + r/2! + … + r¹²/13!, each by Horner in r², fused
//	1/d: an estimate, then Newton steps y += y·e, e = 1 − d·y
//
// sigmoid: a = −x clamped to [−40, 88]; d = 1 + e^a = s·expm1(r) + (s + 1),
// one fused multiply-add; the result is 1/d.
// tanh: a = −2z, z = min(|x|, 20); em = expm1(a) = s·expm1(r) + (s − 1),
// one fused multiply-add; d = 2 + em; tanh z = −em/d = |em·(1/d)|, given
// the sign of x.
//
// A lane fails the rounding test when x is NaN, when the result's magnitude
// is below 2⁻¹²⁶ (float32's smallest normal), or when the 29 low bits of
// its float64 pattern — the bits float32 rounding drops — are within 512
// of 2²⁸, the rounding midpoint: (bits + transMidOff) & transMid29 maps
// 2²⁸ − 512 … 2²⁸ + 512 to the 1025 values below 2²⁹ and above
// transMidThr. F collects the failing lanes.
//
// Each macro runs two independent blocks (suffixes 1 and 2) with their
// instructions interleaved, so that the long dependency chain of one block
// overlaps the other's. The 256-bit forms build s from the integer k,
// found by adding transMagic (1.5·2⁵², which rounds a float64 below 2⁵¹ to
// an integer held in its low bits) in one fused multiply-add, and take the
// estimate from VRCPPS (relative error below 1.5·2⁻¹², flushed to zero for
// d beyond 2¹²⁶, which then stays zero and fails the test) followed by a
// Newton step and a third-order step y += y·(e + e²). The 512-bit forms
// round k by VRNDSCALEPD, scale by VSCALEFPD (Z15 = 1) and start from
// VRCP14PD (below 2⁻¹⁴) with two Newton steps, setting failing lanes in an
// opmask register (through a temporary opmask per block).

#define SIGMOID2Y(x1, k1, kx1, s1, h1, o1, F1, x2, k2, kx2, s2, h2, o2, F2) \
	VCMPPD            $3, x1, x1, o1; \
	VCMPPD            $3, x2, x2, o2; \
	VORPD             o1, F1, F1; \
	VORPD             o2, F2, F2; \
	VXORPD            transSign<>(SB), x1, x1; \
	VXORPD            transSign<>(SB), x2, x2; \
	VMAXPD            sigLo<>(SB), x1, x1; \
	VMAXPD            sigLo<>(SB), x2, x2; \
	VMINPD            sigHi<>(SB), x1, x1; \
	VMINPD            sigHi<>(SB), x2, x2; \
	VMOVUPD           expLog2e<>(SB), k1; \
	VMOVUPD           expLog2e<>(SB), k2; \
	VFMADD213PD       transMagic<>(SB), x1, k1; \
	VFMADD213PD       transMagic<>(SB), x2, k2; \
	VPSLLQ            $52, k1, s1; \
	VPSLLQ            $52, k2, s2; \
	VPADDQ            transBias52<>(SB), s1, s1; \
	VPADDQ            transBias52<>(SB), s2, s2; \
	VSUBPD            transMagic<>(SB), k1, k1; \
	VSUBPD            transMagic<>(SB), k2, k2; \
	VFNMADD231PD      expLn2U<>(SB), k1, x1; \
	VFNMADD231PD      expLn2U<>(SB), k2, x2; \
	VFNMADD231PD      expLn2L<>(SB), k1, x1; \
	VFNMADD231PD      expLn2L<>(SB), k2, x2; \
	VMULPD            x1, x1, k1; \
	VMULPD            x2, x2, k2; \
	VMOVUPD           em1C13<>(SB), h1; \
	VMOVUPD           em1C13<>(SB), h2; \
	VMOVUPD           em1C12<>(SB), o1; \
	VMOVUPD           em1C12<>(SB), o2; \
	VFMADD213PD       em1C11<>(SB), k1, h1; \
	VFMADD213PD       em1C11<>(SB), k2, h2; \
	VFMADD213PD       em1C10<>(SB), k1, o1; \
	VFMADD213PD       em1C10<>(SB), k2, o2; \
	VFMADD213PD       em1C9<>(SB), k1, h1; \
	VFMADD213PD       em1C9<>(SB), k2, h2; \
	VFMADD213PD       em1C8<>(SB), k1, o1; \
	VFMADD213PD       em1C8<>(SB), k2, o2; \
	VFMADD213PD       em1C7<>(SB), k1, h1; \
	VFMADD213PD       em1C7<>(SB), k2, h2; \
	VFMADD213PD       em1C6<>(SB), k1, o1; \
	VFMADD213PD       em1C6<>(SB), k2, o2; \
	VFMADD213PD       em1C5<>(SB), k1, h1; \
	VFMADD213PD       em1C5<>(SB), k2, h2; \
	VFMADD213PD       em1C4<>(SB), k1, o1; \
	VFMADD213PD       em1C4<>(SB), k2, o2; \
	VFMADD213PD       em1C3<>(SB), k1, h1; \
	VFMADD213PD       em1C3<>(SB), k2, h2; \
	VFMADD213PD       expHalf<>(SB), k1, o1; \
	VFMADD213PD       expHalf<>(SB), k2, o2; \
	VFMADD213PD       transOne<>(SB), k1, h1; \
	VFMADD213PD       transOne<>(SB), k2, h2; \
	VFMADD231PD       o1, x1, h1; \
	VFMADD231PD       o2, x2, h2; \
	VMULPD            x1, h1, h1; \
	VMULPD            x2, h2, h2; \
	VADDPD            transOne<>(SB), s1, o1; \
	VADDPD            transOne<>(SB), s2, o2; \
	VFMADD231PD       h1, s1, o1; \
	VFMADD231PD       h2, s2, o2; \
	VCVTPD2PSY        o1, kx1; \
	VCVTPD2PSY        o2, kx2; \
	VRCPPS            kx1, kx1; \
	VRCPPS            kx2, kx2; \
	VCVTPS2PD         kx1, k1; \
	VCVTPS2PD         kx2, k2; \
	VMOVUPD           transOne<>(SB), x1; \
	VMOVUPD           transOne<>(SB), x2; \
	VFNMADD231PD      o1, k1, x1; \
	VFNMADD231PD      o2, k2, x2; \
	VFMADD231PD       x1, k1, k1; \
	VFMADD231PD       x2, k2, k2; \
	VMOVUPD           transOne<>(SB), x1; \
	VMOVUPD           transOne<>(SB), x2; \
	VFNMADD231PD      o1, k1, x1; \
	VFNMADD231PD      o2, k2, x2; \
	VFMADD213PD       x1, x1, x1; \
	VFMADD213PD       x2, x2, x2; \
	VFMADD231PD       x1, k1, k1; \
	VFMADD231PD       x2, k2, k2; \
	VCMPPD            $0x11, transTiny<>(SB), k1, x1; \
	VCMPPD            $0x11, transTiny<>(SB), k2, x2; \
	VORPD             x1, F1, F1; \
	VORPD             x2, F2, F2; \
	VPADDQ            transMidOff<>(SB), k1, x1; \
	VPADDQ            transMidOff<>(SB), k2, x2; \
	VPAND             transMid29<>(SB), x1, x1; \
	VPAND             transMid29<>(SB), x2, x2; \
	VPCMPGTQ          transMidThr<>(SB), x1, x1; \
	VPCMPGTQ          transMidThr<>(SB), x2, x2; \
	VORPD             x1, F1, F1; \
	VORPD             x2, F2, F2


#define TANH2Y(x1, q1, k1, kx1, s1, h1, o1, F1, x2, q2, k2, kx2, s2, h2, o2, F2) \
	VCMPPD            $3, x1, x1, o1; \
	VCMPPD            $3, x2, x2, o2; \
	VORPD             o1, F1, F1; \
	VORPD             o2, F2, F2; \
	VANDPD            transAbs<>(SB), x1, q1; \
	VANDPD            transAbs<>(SB), x2, q2; \
	VMINPD            tanhHi<>(SB), q1, q1; \
	VMINPD            tanhHi<>(SB), q2, q2; \
	VMULPD            transMinusTwo<>(SB), q1, q1; \
	VMULPD            transMinusTwo<>(SB), q2, q2; \
	VMOVUPD           expLog2e<>(SB), k1; \
	VMOVUPD           expLog2e<>(SB), k2; \
	VFMADD213PD       transMagic<>(SB), q1, k1; \
	VFMADD213PD       transMagic<>(SB), q2, k2; \
	VPSLLQ            $52, k1, s1; \
	VPSLLQ            $52, k2, s2; \
	VPADDQ            transBias52<>(SB), s1, s1; \
	VPADDQ            transBias52<>(SB), s2, s2; \
	VSUBPD            transMagic<>(SB), k1, k1; \
	VSUBPD            transMagic<>(SB), k2, k2; \
	VFNMADD231PD      expLn2U<>(SB), k1, q1; \
	VFNMADD231PD      expLn2U<>(SB), k2, q2; \
	VFNMADD231PD      expLn2L<>(SB), k1, q1; \
	VFNMADD231PD      expLn2L<>(SB), k2, q2; \
	VMULPD            q1, q1, k1; \
	VMULPD            q2, q2, k2; \
	VMOVUPD           em1C13<>(SB), h1; \
	VMOVUPD           em1C13<>(SB), h2; \
	VMOVUPD           em1C12<>(SB), o1; \
	VMOVUPD           em1C12<>(SB), o2; \
	VFMADD213PD       em1C11<>(SB), k1, h1; \
	VFMADD213PD       em1C11<>(SB), k2, h2; \
	VFMADD213PD       em1C10<>(SB), k1, o1; \
	VFMADD213PD       em1C10<>(SB), k2, o2; \
	VFMADD213PD       em1C9<>(SB), k1, h1; \
	VFMADD213PD       em1C9<>(SB), k2, h2; \
	VFMADD213PD       em1C8<>(SB), k1, o1; \
	VFMADD213PD       em1C8<>(SB), k2, o2; \
	VFMADD213PD       em1C7<>(SB), k1, h1; \
	VFMADD213PD       em1C7<>(SB), k2, h2; \
	VFMADD213PD       em1C6<>(SB), k1, o1; \
	VFMADD213PD       em1C6<>(SB), k2, o2; \
	VFMADD213PD       em1C5<>(SB), k1, h1; \
	VFMADD213PD       em1C5<>(SB), k2, h2; \
	VFMADD213PD       em1C4<>(SB), k1, o1; \
	VFMADD213PD       em1C4<>(SB), k2, o2; \
	VFMADD213PD       em1C3<>(SB), k1, h1; \
	VFMADD213PD       em1C3<>(SB), k2, h2; \
	VFMADD213PD       expHalf<>(SB), k1, o1; \
	VFMADD213PD       expHalf<>(SB), k2, o2; \
	VFMADD213PD       transOne<>(SB), k1, h1; \
	VFMADD213PD       transOne<>(SB), k2, h2; \
	VFMADD231PD       o1, q1, h1; \
	VFMADD231PD       o2, q2, h2; \
	VMULPD            q1, h1, h1; \
	VMULPD            q2, h2, h2; \
	VSUBPD            transOne<>(SB), s1, o1; \
	VSUBPD            transOne<>(SB), s2, o2; \
	VFMADD231PD       h1, s1, o1; \
	VFMADD231PD       h2, s2, o2; \
	VADDPD            transTwo<>(SB), o1, h1; \
	VADDPD            transTwo<>(SB), o2, h2; \
	VCVTPD2PSY        h1, kx1; \
	VCVTPD2PSY        h2, kx2; \
	VRCPPS            kx1, kx1; \
	VRCPPS            kx2, kx2; \
	VCVTPS2PD         kx1, k1; \
	VCVTPS2PD         kx2, k2; \
	VMOVUPD           transOne<>(SB), q1; \
	VMOVUPD           transOne<>(SB), q2; \
	VFNMADD231PD      h1, k1, q1; \
	VFNMADD231PD      h2, k2, q2; \
	VFMADD231PD       q1, k1, k1; \
	VFMADD231PD       q2, k2, k2; \
	VMOVUPD           transOne<>(SB), q1; \
	VMOVUPD           transOne<>(SB), q2; \
	VFNMADD231PD      h1, k1, q1; \
	VFNMADD231PD      h2, k2, q2; \
	VFMADD213PD       q1, q1, q1; \
	VFMADD213PD       q2, q2, q2; \
	VFMADD231PD       q1, k1, k1; \
	VFMADD231PD       q2, k2, k2; \
	VMULPD            k1, o1, k1; \
	VMULPD            k2, o2, k2; \
	VANDPD            transAbs<>(SB), k1, k1; \
	VANDPD            transAbs<>(SB), k2, k2; \
	VCMPPD            $0x11, transTiny<>(SB), k1, q1; \
	VCMPPD            $0x11, transTiny<>(SB), k2, q2; \
	VORPD             q1, F1, F1; \
	VORPD             q2, F2, F2; \
	VPADDQ            transMidOff<>(SB), k1, q1; \
	VPADDQ            transMidOff<>(SB), k2, q2; \
	VPAND             transMid29<>(SB), q1, q1; \
	VPAND             transMid29<>(SB), q2, q2; \
	VPCMPGTQ          transMidThr<>(SB), q1, q1; \
	VPCMPGTQ          transMidThr<>(SB), q2, q2; \
	VORPD             q1, F1, F1; \
	VORPD             q2, F2, F2; \
	VANDPD            transSign<>(SB), x1, q1; \
	VANDPD            transSign<>(SB), x2, q2; \
	VORPD             q1, k1, k1; \
	VORPD             q2, k2, k2


// func sigmoidKernel(dst, src *float32, n int) int
TEXT ·sigmoidKernel(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	XORQ AX, AX

sigLoop:
	CMPQ       AX, CX
	JGE        sigDone
	VCVTPS2PD  (SI)(AX*4), Y0
	VCVTPS2PD  16(SI)(AX*4), Y6
	VXORPD     Y13, Y13, Y13
	SIGMOID2Y(Y0, Y1, X1, Y2, Y3, Y4, Y13, Y6, Y7, X7, Y8, Y9, Y10, Y13)
	VPTEST     Y13, Y13
	JNZ        sigDone
	VCVTPD2PSY Y1, X1
	VCVTPD2PSY Y7, X7
	VMOVUPS    X1, (DI)(AX*4)
	VMOVUPS    X7, 16(DI)(AX*4)
	ADDQ       $8, AX
	JMP        sigLoop

sigDone:
	MOVQ AX, ret+24(FP)
	VZEROUPPER
	RET

// func tanhKernel(dst, src *float32, n int) int
TEXT ·tanhKernel(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	XORQ AX, AX

tanhLoop:
	CMPQ       AX, CX
	JGE        tanhDone
	VCVTPS2PD  (SI)(AX*4), Y0
	VCVTPS2PD  16(SI)(AX*4), Y6
	VXORPD     Y13, Y13, Y13
	TANH2Y(Y0, Y1, Y2, X2, Y3, Y4, Y5, Y13, Y6, Y7, Y8, X8, Y9, Y10, Y11, Y13)
	VPTEST     Y13, Y13
	JNZ        tanhDone
	VCVTPD2PSY Y2, X2
	VCVTPD2PSY Y8, X8
	VMOVUPS    X2, (DI)(AX*4)
	VMOVUPS    X8, 16(DI)(AX*4)
	ADDQ       $8, AX
	JMP        tanhLoop

tanhDone:
	MOVQ AX, ret+24(FP)
	VZEROUPPER
	RET

// func expShiftKernel(dst *float64, src *float32, n int, m float32) int
TEXT ·expShiftKernel(SB), NOSPLIT, $0-40
	MOVQ         dst+0(FP), DI
	MOVQ         src+8(FP), SI
	MOVQ         n+16(FP), CX
	VBROADCASTSS m+24(FP), X15
	XORQ         AX, AX

expLoop:
	CMPQ      AX, CX
	JGE       expDone
	VMOVUPS   (SI)(AX*4), X0
	VSUBPS    X15, X0, X0 // x − m, in float32
	VCVTPS2PD X0, Y0
	OUTOFRANGE(Y0, Y1, expDone)
	EXPCORE(Y0, Y1, X1, Y2)
	VMOVUPD   Y0, (DI)(AX*8)
	ADDQ      $4, AX
	JMP       expLoop

expDone:
	MOVQ AX, ret+32(FP)
	VZEROUPPER
	RET


// The 512-bit kernels, on eight float64 lanes per ZMM register. Each
// constant is the first float64 of its CONST4 symbol, broadcast from memory
// (.BCST) or by VBROADCASTSD; the logical operations are VPANDQ/VPXORQ/VPORQ
// (AVX512F), which move the same bits as VANDPD/VXORPD/VORPD. A compare
// writes an opmask register. ExpShift's kernel runs EXPCORE's operations in
// its order; Sigmoid's and Tanh's round k by VRNDSCALEPD, scale by
// VSCALEFPD and start the reciprocal from VRCP14PD, so their float64 lanes
// may differ from the 256-bit kernels' in the last bits, and the rounding
// test holds both to the same float32 results. Only Z0-Z15 are used, so
// VZEROUPPER leaves no dirty upper state.


// EXPCORE512 is EXPCORE on the eight lanes of x; k (ky is its YMM half) and
// p are clobbered.
#define EXPCORE512(x, k, ky, p) \
	VMULPD.BCST       expLog2e<>(SB), x, p; \
	VCVTPD2DQ         p, ky; \
	VCVTDQ2PD         ky, p; \
	VFNMADD231PD.BCST expLn2U<>(SB), p, x; \
	VFNMADD231PD.BCST expLn2L<>(SB), p, x; \
	VMULPD.BCST       expSixteenth<>(SB), x, x; \
	VBROADCASTSD      expC8<>(SB), p; \
	VFMADD213PD.BCST  expC7<>(SB), x, p; \
	VFMADD213PD.BCST  expC6<>(SB), x, p; \
	VFMADD213PD.BCST  expC5<>(SB), x, p; \
	VFMADD213PD.BCST  expC4<>(SB), x, p; \
	VFMADD213PD.BCST  expC3<>(SB), x, p; \
	VFMADD213PD.BCST  expHalf<>(SB), x, p; \
	VFMADD213PD.BCST  transOne<>(SB), x, p; \
	VMULPD            p, x, x; \
	VADDPD.BCST       transTwo<>(SB), x, p; \
	VMULPD            p, x, x; \
	VADDPD.BCST       transTwo<>(SB), x, p; \
	VMULPD            p, x, x; \
	VADDPD.BCST       transTwo<>(SB), x, p; \
	VMULPD            p, x, x; \
	VADDPD.BCST       transTwo<>(SB), x, p; \
	VFMADD213PD.BCST  transOne<>(SB), p, x; \
	VPMOVSXDQ         ky, k; \
	VPADDQ.BCST       expBias<>(SB), k, k; \
	VPSLLQ            $52, k, k; \
	VMULPD            k, x, x

// OUTOFRANGE512 jumps to done when a lane of x is NaN or beyond ±700: the
// compare sets K1's bit of each such lane. t is clobbered.
#define OUTOFRANGE512(x, t, done) \
	VPANDQ.BCST transAbs<>(SB), x, t; \
	VCMPPD.BCST $0x16, transMaxArg<>(SB), t, K1; \
	KORTESTW    K1, K1; \
	JNZ         done

// func expShiftKernel512(dst *float64, src *float32, n int, m float32) int
TEXT ·expShiftKernel512(SB), NOSPLIT, $0-40
	MOVQ         dst+0(FP), DI
	MOVQ         src+8(FP), SI
	MOVQ         n+16(FP), CX
	VBROADCASTSS m+24(FP), Y15
	XORQ         AX, AX

exp8Loop:
	CMPQ      AX, CX
	JGE       exp8Done
	VMOVUPS   (SI)(AX*4), Y0
	VSUBPS    Y15, Y0, Y0 // x − m, in float32
	VCVTPS2PD Y0, Z0
	OUTOFRANGE512(Z0, Z1, exp8Done)
	EXPCORE512(Z0, Z1, Y1, Z2)
	VMOVUPD   Z0, (DI)(AX*8)
	ADDQ      $8, AX
	JMP       exp8Loop

exp8Done:
	MOVQ AX, ret+32(FP)
	VZEROUPPER
	RET


#define SIGMOID2Z(x1, k1, s1, h1, o1, F1, T1, x2, k2, s2, h2, o2, F2, T2) \
	VCMPPD            $3, x1, x1, T1; \
	VCMPPD            $3, x2, x2, T2; \
	KORW              T1, F1, F1; \
	KORW              T2, F2, F2; \
	VPXORQ.BCST       transSign<>(SB), x1, x1; \
	VPXORQ.BCST       transSign<>(SB), x2, x2; \
	VMAXPD.BCST       sigLo<>(SB), x1, x1; \
	VMAXPD.BCST       sigLo<>(SB), x2, x2; \
	VMINPD.BCST       sigHi<>(SB), x1, x1; \
	VMINPD.BCST       sigHi<>(SB), x2, x2; \
	VMULPD.BCST       expLog2e<>(SB), x1, k1; \
	VMULPD.BCST       expLog2e<>(SB), x2, k2; \
	VRNDSCALEPD       $0, k1, k1; \
	VRNDSCALEPD       $0, k2, k2; \
	VSCALEFPD         k1, Z15, s1; \
	VSCALEFPD         k2, Z15, s2; \
	VFNMADD231PD.BCST expLn2U<>(SB), k1, x1; \
	VFNMADD231PD.BCST expLn2U<>(SB), k2, x2; \
	VFNMADD231PD.BCST expLn2L<>(SB), k1, x1; \
	VFNMADD231PD.BCST expLn2L<>(SB), k2, x2; \
	VMULPD            x1, x1, k1; \
	VMULPD            x2, x2, k2; \
	VBROADCASTSD      em1C13<>(SB), h1; \
	VBROADCASTSD      em1C13<>(SB), h2; \
	VBROADCASTSD      em1C12<>(SB), o1; \
	VBROADCASTSD      em1C12<>(SB), o2; \
	VFMADD213PD.BCST  em1C11<>(SB), k1, h1; \
	VFMADD213PD.BCST  em1C11<>(SB), k2, h2; \
	VFMADD213PD.BCST  em1C10<>(SB), k1, o1; \
	VFMADD213PD.BCST  em1C10<>(SB), k2, o2; \
	VFMADD213PD.BCST  em1C9<>(SB), k1, h1; \
	VFMADD213PD.BCST  em1C9<>(SB), k2, h2; \
	VFMADD213PD.BCST  em1C8<>(SB), k1, o1; \
	VFMADD213PD.BCST  em1C8<>(SB), k2, o2; \
	VFMADD213PD.BCST  em1C7<>(SB), k1, h1; \
	VFMADD213PD.BCST  em1C7<>(SB), k2, h2; \
	VFMADD213PD.BCST  em1C6<>(SB), k1, o1; \
	VFMADD213PD.BCST  em1C6<>(SB), k2, o2; \
	VFMADD213PD.BCST  em1C5<>(SB), k1, h1; \
	VFMADD213PD.BCST  em1C5<>(SB), k2, h2; \
	VFMADD213PD.BCST  em1C4<>(SB), k1, o1; \
	VFMADD213PD.BCST  em1C4<>(SB), k2, o2; \
	VFMADD213PD.BCST  em1C3<>(SB), k1, h1; \
	VFMADD213PD.BCST  em1C3<>(SB), k2, h2; \
	VFMADD213PD.BCST  expHalf<>(SB), k1, o1; \
	VFMADD213PD.BCST  expHalf<>(SB), k2, o2; \
	VFMADD213PD       Z15, k1, h1; \
	VFMADD213PD       Z15, k2, h2; \
	VFMADD231PD       o1, x1, h1; \
	VFMADD231PD       o2, x2, h2; \
	VMULPD            x1, h1, h1; \
	VMULPD            x2, h2, h2; \
	VADDPD            Z15, s1, o1; \
	VADDPD            Z15, s2, o2; \
	VFMADD231PD       h1, s1, o1; \
	VFMADD231PD       h2, s2, o2; \
	VRCP14PD          o1, k1; \
	VRCP14PD          o2, k2; \
	VMOVAPD           Z15, x1; \
	VMOVAPD           Z15, x2; \
	VFNMADD231PD      o1, k1, x1; \
	VFNMADD231PD      o2, k2, x2; \
	VFMADD231PD       x1, k1, k1; \
	VFMADD231PD       x2, k2, k2; \
	VMOVAPD           Z15, x1; \
	VMOVAPD           Z15, x2; \
	VFNMADD231PD      o1, k1, x1; \
	VFNMADD231PD      o2, k2, x2; \
	VFMADD231PD       x1, k1, k1; \
	VFMADD231PD       x2, k2, k2; \
	VCMPPD.BCST       $0x11, transTiny<>(SB), k1, T1; \
	VCMPPD.BCST       $0x11, transTiny<>(SB), k2, T2; \
	KORW              T1, F1, F1; \
	KORW              T2, F2, F2; \
	VPADDQ.BCST       transMidOff<>(SB), k1, x1; \
	VPADDQ.BCST       transMidOff<>(SB), k2, x2; \
	VPANDQ.BCST       transMid29<>(SB), x1, x1; \
	VPANDQ.BCST       transMid29<>(SB), x2, x2; \
	VPCMPGTQ.BCST     transMidThr<>(SB), x1, T1; \
	VPCMPGTQ.BCST     transMidThr<>(SB), x2, T2; \
	KORW              T1, F1, F1; \
	KORW              T2, F2, F2


#define TANH2Z(x1, q1, k1, s1, h1, o1, F1, T1, x2, q2, k2, s2, h2, o2, F2, T2) \
	VCMPPD            $3, x1, x1, T1; \
	VCMPPD            $3, x2, x2, T2; \
	KORW              T1, F1, F1; \
	KORW              T2, F2, F2; \
	VPANDQ.BCST       transAbs<>(SB), x1, q1; \
	VPANDQ.BCST       transAbs<>(SB), x2, q2; \
	VMINPD.BCST       tanhHi<>(SB), q1, q1; \
	VMINPD.BCST       tanhHi<>(SB), q2, q2; \
	VMULPD.BCST       transMinusTwo<>(SB), q1, q1; \
	VMULPD.BCST       transMinusTwo<>(SB), q2, q2; \
	VMULPD.BCST       expLog2e<>(SB), q1, k1; \
	VMULPD.BCST       expLog2e<>(SB), q2, k2; \
	VRNDSCALEPD       $0, k1, k1; \
	VRNDSCALEPD       $0, k2, k2; \
	VSCALEFPD         k1, Z15, s1; \
	VSCALEFPD         k2, Z15, s2; \
	VFNMADD231PD.BCST expLn2U<>(SB), k1, q1; \
	VFNMADD231PD.BCST expLn2U<>(SB), k2, q2; \
	VFNMADD231PD.BCST expLn2L<>(SB), k1, q1; \
	VFNMADD231PD.BCST expLn2L<>(SB), k2, q2; \
	VMULPD            q1, q1, k1; \
	VMULPD            q2, q2, k2; \
	VBROADCASTSD      em1C13<>(SB), h1; \
	VBROADCASTSD      em1C13<>(SB), h2; \
	VBROADCASTSD      em1C12<>(SB), o1; \
	VBROADCASTSD      em1C12<>(SB), o2; \
	VFMADD213PD.BCST  em1C11<>(SB), k1, h1; \
	VFMADD213PD.BCST  em1C11<>(SB), k2, h2; \
	VFMADD213PD.BCST  em1C10<>(SB), k1, o1; \
	VFMADD213PD.BCST  em1C10<>(SB), k2, o2; \
	VFMADD213PD.BCST  em1C9<>(SB), k1, h1; \
	VFMADD213PD.BCST  em1C9<>(SB), k2, h2; \
	VFMADD213PD.BCST  em1C8<>(SB), k1, o1; \
	VFMADD213PD.BCST  em1C8<>(SB), k2, o2; \
	VFMADD213PD.BCST  em1C7<>(SB), k1, h1; \
	VFMADD213PD.BCST  em1C7<>(SB), k2, h2; \
	VFMADD213PD.BCST  em1C6<>(SB), k1, o1; \
	VFMADD213PD.BCST  em1C6<>(SB), k2, o2; \
	VFMADD213PD.BCST  em1C5<>(SB), k1, h1; \
	VFMADD213PD.BCST  em1C5<>(SB), k2, h2; \
	VFMADD213PD.BCST  em1C4<>(SB), k1, o1; \
	VFMADD213PD.BCST  em1C4<>(SB), k2, o2; \
	VFMADD213PD.BCST  em1C3<>(SB), k1, h1; \
	VFMADD213PD.BCST  em1C3<>(SB), k2, h2; \
	VFMADD213PD.BCST  expHalf<>(SB), k1, o1; \
	VFMADD213PD.BCST  expHalf<>(SB), k2, o2; \
	VFMADD213PD       Z15, k1, h1; \
	VFMADD213PD       Z15, k2, h2; \
	VFMADD231PD       o1, q1, h1; \
	VFMADD231PD       o2, q2, h2; \
	VMULPD            q1, h1, h1; \
	VMULPD            q2, h2, h2; \
	VSUBPD            Z15, s1, o1; \
	VSUBPD            Z15, s2, o2; \
	VFMADD231PD       h1, s1, o1; \
	VFMADD231PD       h2, s2, o2; \
	VADDPD.BCST       transTwo<>(SB), o1, h1; \
	VADDPD.BCST       transTwo<>(SB), o2, h2; \
	VRCP14PD          h1, k1; \
	VRCP14PD          h2, k2; \
	VMOVAPD           Z15, q1; \
	VMOVAPD           Z15, q2; \
	VFNMADD231PD      h1, k1, q1; \
	VFNMADD231PD      h2, k2, q2; \
	VFMADD231PD       q1, k1, k1; \
	VFMADD231PD       q2, k2, k2; \
	VMOVAPD           Z15, q1; \
	VMOVAPD           Z15, q2; \
	VFNMADD231PD      h1, k1, q1; \
	VFNMADD231PD      h2, k2, q2; \
	VFMADD231PD       q1, k1, k1; \
	VFMADD231PD       q2, k2, k2; \
	VMULPD            k1, o1, k1; \
	VMULPD            k2, o2, k2; \
	VPANDQ.BCST       transAbs<>(SB), k1, k1; \
	VPANDQ.BCST       transAbs<>(SB), k2, k2; \
	VCMPPD.BCST       $0x11, transTiny<>(SB), k1, T1; \
	VCMPPD.BCST       $0x11, transTiny<>(SB), k2, T2; \
	KORW              T1, F1, F1; \
	KORW              T2, F2, F2; \
	VPADDQ.BCST       transMidOff<>(SB), k1, q1; \
	VPADDQ.BCST       transMidOff<>(SB), k2, q2; \
	VPANDQ.BCST       transMid29<>(SB), q1, q1; \
	VPANDQ.BCST       transMid29<>(SB), q2, q2; \
	VPCMPGTQ.BCST     transMidThr<>(SB), q1, T1; \
	VPCMPGTQ.BCST     transMidThr<>(SB), q2, T2; \
	KORW              T1, F1, F1; \
	KORW              T2, F2, F2; \
	VPANDQ.BCST       transSign<>(SB), x1, q1; \
	VPANDQ.BCST       transSign<>(SB), x2, q2; \
	VPORQ             q1, k1, k1; \
	VPORQ             q2, k2, k2

// func sigmoidKernel512(dst, src *float32, n int) int
TEXT ·sigmoidKernel512(SB), NOSPLIT, $0-32
	MOVQ         dst+0(FP), DI
	MOVQ         src+8(FP), SI
	MOVQ         n+16(FP), CX
	XORQ         AX, AX
	VBROADCASTSD transOne<>(SB), Z15

sig8Loop:
	CMPQ      AX, CX
	JGE       sig8Done
	VCVTPS2PD (SI)(AX*4), Z0
	VCVTPS2PD 32(SI)(AX*4), Z5
	KXORW     K2, K2, K2
	SIGMOID2Z(Z0, Z1, Z2, Z3, Z4, K2, K1, Z5, Z6, Z7, Z8, Z9, K2, K3)
	KORTESTW  K2, K2
	JNZ       sig8Done
	VCVTPD2PS Z1, Y1
	VCVTPD2PS Z6, Y6
	VMOVUPS   Y1, (DI)(AX*4)
	VMOVUPS   Y6, 32(DI)(AX*4)
	ADDQ      $16, AX
	JMP       sig8Loop

sig8Done:
	MOVQ AX, ret+24(FP)
	VZEROUPPER
	RET

// func tanhKernel512(dst, src *float32, n int) int
TEXT ·tanhKernel512(SB), NOSPLIT, $0-32
	MOVQ         dst+0(FP), DI
	MOVQ         src+8(FP), SI
	MOVQ         n+16(FP), CX
	XORQ         AX, AX
	VBROADCASTSD transOne<>(SB), Z15

tanh8Loop:
	CMPQ      AX, CX
	JGE       tanh8Done
	VCVTPS2PD (SI)(AX*4), Z0
	VCVTPS2PD 32(SI)(AX*4), Z6
	KXORW     K2, K2, K2
	TANH2Z(Z0, Z1, Z2, Z3, Z4, Z5, K2, K1, Z6, Z7, Z8, Z9, Z10, Z11, K2, K3)
	KORTESTW  K2, K2
	JNZ       tanh8Done
	VCVTPD2PS Z2, Y2
	VCVTPD2PS Z8, Y8
	VMOVUPS   Y2, (DI)(AX*4)
	VMOVUPS   Y8, 32(DI)(AX*4)
	ADDQ      $16, AX
	JMP       tanh8Loop

tanh8Done:
	MOVQ AX, ret+24(FP)
	VZEROUPPER
	RET
