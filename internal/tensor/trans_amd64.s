//go:build amd64 && !purego

#include "textflag.h"

// AVX2+FMA and AVX-512 transcendental kernels. See trans_amd64.go for the
// contract and the package comment ("Transcendentals") for the operation
// sequence.

// CONST4 defines sym as four float64 (or int64) copies of v, one YMM operand.
#define CONST4(sym, v) \
	DATA sym<>+0(SB)/8, v; \
	DATA sym<>+8(SB)/8, v; \
	DATA sym<>+16(SB)/8, v; \
	DATA sym<>+24(SB)/8, v; \
	GLOBL sym<>(SB), RODATA|NOPTR, $32

// The constants of math.Exp on amd64 (exp_amd64.s), as written there.
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

// The constants of math.tanh (tanh.go): MAXLOG/2, the branch point and the
// Cephes rational's coefficients.
CONST4(tanhHalfMaxLog, $44.014845965556527147994)
CONST4(tanhSplit, $0.625)
CONST4(tanhP0, $-9.64399179425052238628e-1)
CONST4(tanhP1, $-9.92877231001918586564e1)
CONST4(tanhP2, $-1.61468768441708447952e3)
CONST4(tanhQ0, $1.12811678491632931402e2)
CONST4(tanhQ1, $2.23548839060100448583e3)
CONST4(tanhQ2, $4.84406305325125486048e3)

CONST4(transOne, $1.0)
CONST4(transTwo, $2.0)
CONST4(transMaxArg, $700.0)
CONST4(transSign, $0x8000000000000000)
CONST4(transAbs, $0x7fffffffffffffff)

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

// func sigmoidKernel(dst, src *float32, n int) int
TEXT ·sigmoidKernel(SB), NOSPLIT, $0-32
	MOVQ    dst+0(FP), DI
	MOVQ    src+8(FP), SI
	MOVQ    n+16(FP), CX
	XORQ    AX, AX
	VMOVUPD transOne<>(SB), Y15

sigLoop:
	CMPQ      AX, CX
	JGE       sigDone
	VCVTPS2PD (SI)(AX*4), Y0
	VXORPD    transSign<>(SB), Y0, Y0 // −x
	OUTOFRANGE(Y0, Y1, sigDone)
	EXPCORE(Y0, Y1, X1, Y2)
	VADDPD    Y15, Y0, Y0             // 1 + e
	VDIVPD    Y0, Y15, Y0             // 1 / (1 + e)
	VCVTPD2PSY Y0, X0
	VMOVUPS   X0, (DI)(AX*4)
	ADDQ      $4, AX
	JMP       sigLoop

sigDone:
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

// func tanhKernel(dst, src *float32, n int) int
//
// Per lane, with z = |x|, the value of each branch of math.tanh, then blends
// in the order that makes the switch's first true case win:
//
//	default      x + x·s·P(s)/Q(s), s = x·x (unfused, as tanh.go writes it)
//	x == 0       x
//	z >= 0.625   ±(1 − 2/(exp(2z) + 1)), the sign of x
//	z > MAXLOG/2 ±1
//
// exp's argument is 2·min(z, MAXLOG/2), which leaves the lanes that take
// its branch alone and keeps the others (NaN: VMINPD returns its second
// operand) inside EXPCORE's range. A NaN fails every compare and takes the
// rational, as it does in tanh.go.
TEXT ·tanhKernel(SB), NOSPLIT, $0-32
	MOVQ    dst+0(FP), DI
	MOVQ    src+8(FP), SI
	MOVQ    n+16(FP), CX
	XORQ    AX, AX
	VMOVUPD transOne<>(SB), Y15
	VMOVUPD transTwo<>(SB), Y14
	VXORPD  Y13, Y13, Y13

tanhLoop:
	CMPQ      AX, CX
	JGE       tanhDone
	VCVTPS2PD (SI)(AX*4), Y0
	VANDPD    transAbs<>(SB), Y0, Y1       // z
	VANDPD    transSign<>(SB), Y0, Y5      // sign of x
	VMINPD    tanhHalfMaxLog<>(SB), Y1, Y2
	VADDPD    Y2, Y2, Y2                   // 2z
	EXPCORE(Y2, Y3, X3, Y4)
	VADDPD    Y15, Y2, Y2                  // s + 1
	VDIVPD    Y2, Y14, Y2                  // 2 / (s + 1)
	VSUBPD    Y2, Y15, Y2                  // 1 − 2/(s + 1)
	VXORPD    Y5, Y2, Y2

	VMULPD    Y0, Y0, Y6                   // s = x·x
	VMULPD    tanhP0<>(SB), Y6, Y7
	VADDPD    tanhP1<>(SB), Y7, Y7
	VMULPD    Y6, Y7, Y7
	VADDPD    tanhP2<>(SB), Y7, Y7         // P(s)
	VADDPD    tanhQ0<>(SB), Y6, Y8
	VMULPD    Y6, Y8, Y8
	VADDPD    tanhQ1<>(SB), Y8, Y8
	VMULPD    Y6, Y8, Y8
	VADDPD    tanhQ2<>(SB), Y8, Y8         // Q(s)
	VMULPD    Y6, Y0, Y9                   // x·s
	VMULPD    Y7, Y9, Y9                   // x·s·P
	VDIVPD    Y8, Y9, Y9                   // x·s·P / Q
	VADDPD    Y9, Y0, Y9                   // x + x·s·P/Q

	VCMPPD    $0x00, Y13, Y0, Y10          // x == 0
	VBLENDVPD Y10, Y0, Y9, Y9
	VCMPPD    $0x1D, tanhSplit<>(SB), Y1, Y10 // z >= 0.625
	VBLENDVPD Y10, Y2, Y9, Y9
	VCMPPD    $0x1E, tanhHalfMaxLog<>(SB), Y1, Y10 // z > MAXLOG/2
	VORPD     Y15, Y5, Y11                 // ±1
	VBLENDVPD Y10, Y11, Y9, Y9

	VCVTPD2PSY Y9, X9
	VMOVUPS   X9, (DI)(AX*4)
	ADDQ      $4, AX
	JMP       tanhLoop

tanhDone:
	MOVQ AX, ret+24(FP)
	VZEROUPPER
	RET

// The 512-bit kernels: the same operations, in the same order, on eight
// float64 lanes per ZMM register. Each constant is the first float64 of its
// CONST4 symbol, broadcast from memory (.BCST) or by VBROADCASTSD; the
// logical operations are VPANDQ/VPXORQ/VPORQ (AVX512F), which move the same
// bits as VANDPD/VXORPD/VORPD. A compare writes an opmask register, and
// tanh's blends are merge-masked moves. Only Z0-Z15 are used, so VZEROUPPER
// leaves no dirty upper state.

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

// func sigmoidKernel512(dst, src *float32, n int) int
TEXT ·sigmoidKernel512(SB), NOSPLIT, $0-32
	MOVQ         dst+0(FP), DI
	MOVQ         src+8(FP), SI
	MOVQ         n+16(FP), CX
	XORQ         AX, AX
	VBROADCASTSD transOne<>(SB), Z15

sig8Loop:
	CMPQ        AX, CX
	JGE         sig8Done
	VCVTPS2PD   (SI)(AX*4), Z0
	VPXORQ.BCST transSign<>(SB), Z0, Z0 // −x
	OUTOFRANGE512(Z0, Z1, sig8Done)
	EXPCORE512(Z0, Z1, Y1, Z2)
	VADDPD      Z15, Z0, Z0             // 1 + e
	VDIVPD      Z0, Z15, Z0             // 1 / (1 + e)
	VCVTPD2PS   Z0, Y0
	VMOVUPS     Y0, (DI)(AX*4)
	ADDQ        $8, AX
	JMP         sig8Loop

sig8Done:
	MOVQ AX, ret+24(FP)
	VZEROUPPER
	RET

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

// func tanhKernel512(dst, src *float32, n int) int
//
// tanhKernel on eight lanes; the three blends are merge-masked VMOVAPDs
// under each compare's opmask, in the same order.
TEXT ·tanhKernel512(SB), NOSPLIT, $0-32
	MOVQ         dst+0(FP), DI
	MOVQ         src+8(FP), SI
	MOVQ         n+16(FP), CX
	XORQ         AX, AX
	VBROADCASTSD transOne<>(SB), Z15
	VBROADCASTSD transTwo<>(SB), Z14
	VPXORQ       Z13, Z13, Z13

tanh8Loop:
	CMPQ        AX, CX
	JGE         tanh8Done
	VCVTPS2PD   (SI)(AX*4), Z0
	VPANDQ.BCST transAbs<>(SB), Z0, Z1        // z
	VPANDQ.BCST transSign<>(SB), Z0, Z5       // sign of x
	VMINPD.BCST tanhHalfMaxLog<>(SB), Z1, Z2
	VADDPD      Z2, Z2, Z2                    // 2z
	EXPCORE512(Z2, Z3, Y3, Z4)
	VADDPD      Z15, Z2, Z2                   // s + 1
	VDIVPD      Z2, Z14, Z2                   // 2 / (s + 1)
	VSUBPD      Z2, Z15, Z2                   // 1 − 2/(s + 1)
	VPXORQ      Z5, Z2, Z2

	VMULPD      Z0, Z0, Z6                    // s = x·x
	VMULPD.BCST tanhP0<>(SB), Z6, Z7
	VADDPD.BCST tanhP1<>(SB), Z7, Z7
	VMULPD      Z6, Z7, Z7
	VADDPD.BCST tanhP2<>(SB), Z7, Z7          // P(s)
	VADDPD.BCST tanhQ0<>(SB), Z6, Z8
	VMULPD      Z6, Z8, Z8
	VADDPD.BCST tanhQ1<>(SB), Z8, Z8
	VMULPD      Z6, Z8, Z8
	VADDPD.BCST tanhQ2<>(SB), Z8, Z8          // Q(s)
	VMULPD      Z6, Z0, Z9                    // x·s
	VMULPD      Z7, Z9, Z9                    // x·s·P
	VDIVPD      Z8, Z9, Z9                    // x·s·P / Q
	VADDPD      Z9, Z0, Z9                    // x + x·s·P/Q

	VCMPPD      $0x00, Z13, Z0, K1            // x == 0
	VMOVAPD     Z0, K1, Z9
	VCMPPD.BCST $0x1D, tanhSplit<>(SB), Z1, K1 // z >= 0.625
	VMOVAPD     Z2, K1, Z9
	VCMPPD.BCST $0x1E, tanhHalfMaxLog<>(SB), Z1, K1 // z > MAXLOG/2
	VPORQ       Z15, Z5, Z11                  // ±1
	VMOVAPD     Z11, K1, Z9

	VCVTPD2PS Z9, Y9
	VMOVUPS   Y9, (DI)(AX*4)
	ADDQ      $8, AX
	JMP       tanh8Loop

tanh8Done:
	MOVQ AX, ret+24(FP)
	VZEROUPPER
	RET
