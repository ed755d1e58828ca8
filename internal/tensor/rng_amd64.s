//go:build amd64 && !purego

#include "textflag.h"

// AVX2 polar-method kernel. See rng_amd64.go for the contract and the
// package comment ("Random variates") for the operation sequence.

// CONST4 defines sym as four float64 (or int64) copies of v, one YMM operand.
#define CONST4(sym, v) \
	DATA sym<>+0(SB)/8, v; \
	DATA sym<>+8(SB)/8, v; \
	DATA sym<>+16(SB)/8, v; \
	DATA sym<>+24(SB)/8, v; \
	GLOBL sym<>(SB), RODATA|NOPTR, $32

// The constants of math.Log on amd64 (log_amd64.s), as written there.
CONST4(logHSqrt2, $7.07106781186547524401e-01)
CONST4(logLn2Hi, $6.93147180369123816490e-01)
CONST4(logLn2Lo, $1.90821492927058770002e-10)
CONST4(logL1, $6.666666666666735130e-01)
CONST4(logL2, $3.999999999940941908e-01)
CONST4(logL3, $2.857142874366239149e-01)
CONST4(logL4, $2.222219843214978396e-01)
CONST4(logL5, $1.818357216161805012e-01)
CONST4(logL6, $1.531383769920937332e-01)
CONST4(logL7, $1.479819860511658591e-01)
CONST4(logMant, $0x000FFFFFFFFFFFFF)
CONST4(logHalf, $0.5)
CONST4(logOne, $1.0)
CONST4(logTwo, $2.0)

// logExp52 holds the bits of 2⁵², logExpBias the float64 2⁵² + 0x3FE: an
// exponent field e ORed into the first and the second subtracted gives
// float64(e − 0x3FE) exactly, the CVTSL2SD of archLog's k.
CONST4(logExp52, $0x4330000000000000)
CONST4(logExpBias, $4503599627371518.0)

CONST4(polarMinusTwo, $-2.0)

// LOG4 sets Y1 to math.Log of the four positive, finite lanes of Y0, with
// archLog's operations in its order: frexp by bit masks (f1 from the
// mantissa with the exponent of 0.5, k from the exponent field); k −= 1 and
// f1 ×= 2 unless HSqrt2 < f1, as a 0-or-1 mask; f = f1 − 1; s = f/(2+f);
// the odd and even polynomials in s⁴ by Horner, unfused; and
// k·Ln2Hi − ((hfsq − (s·(hfsq+R) + k·Ln2Lo)) − f). Y0 is kept, Y2–Y6 are
// clobbered, Y15 must hold 1.0 and Y14 HSqrt2.
#define LOG4 \
	VANDPD     logMant<>(SB), Y0, Y2; \
	VORPD      logHalf<>(SB), Y2, Y2; \
	VPSRLQ     $52, Y0, Y1; \
	VPOR       logExp52<>(SB), Y1, Y1; \
	VSUBPD     logExpBias<>(SB), Y1, Y1; \
	VCMPPD     $5, Y2, Y14, Y3; \
	VANDPD     Y15, Y3, Y3; \
	VSUBPD     Y3, Y1, Y1; \
	VADDPD     Y15, Y3, Y3; \
	VMULPD     Y3, Y2, Y2; \
	VSUBPD     Y15, Y2, Y2; \
	VADDPD     logTwo<>(SB), Y2, Y3; \
	VDIVPD     Y3, Y2, Y3; \
	VMULPD     Y3, Y3, Y4; \
	VMULPD     Y4, Y4, Y5; \
	VMULPD     logL7<>(SB), Y5, Y6; \
	VADDPD     logL5<>(SB), Y6, Y6; \
	VMULPD     Y5, Y6, Y6; \
	VADDPD     logL3<>(SB), Y6, Y6; \
	VMULPD     Y5, Y6, Y6; \
	VADDPD     logL1<>(SB), Y6, Y6; \
	VMULPD     Y6, Y4, Y4; \
	VMULPD     logL6<>(SB), Y5, Y6; \
	VADDPD     logL4<>(SB), Y6, Y6; \
	VMULPD     Y5, Y6, Y6; \
	VADDPD     logL2<>(SB), Y6, Y6; \
	VMULPD     Y6, Y5, Y5; \
	VADDPD     Y5, Y4, Y4; \
	VMULPD     logHalf<>(SB), Y2, Y5; \
	VMULPD     Y2, Y5, Y5; \
	VADDPD     Y5, Y4, Y4; \
	VMULPD     Y4, Y3, Y3; \
	VMULPD     logLn2Lo<>(SB), Y1, Y4; \
	VADDPD     Y4, Y3, Y3; \
	VSUBPD     Y3, Y5, Y5; \
	VSUBPD     Y2, Y5, Y5; \
	VMULPD     logLn2Hi<>(SB), Y1, Y1; \
	VSUBPD     Y5, Y1, Y1

// func polarKernel(dst *float32, u, s *float64, n int, mean, std float32)
TEXT ·polarKernel(SB), NOSPLIT, $0-40
	MOVQ         dst+0(FP), DI
	MOVQ         u+8(FP), SI
	MOVQ         s+16(FP), DX
	MOVQ         n+24(FP), CX
	VBROADCASTSS mean+32(FP), X12
	VBROADCASTSS std+36(FP), X13
	VMOVUPD      logOne<>(SB), Y15
	VMOVUPD      logHSqrt2<>(SB), Y14
	XORQ         AX, AX

polarLoop:
	CMPQ       AX, CX
	JGE        polarDone
	VMOVUPD    (DX)(AX*8), Y0
	LOG4
	VMULPD     polarMinusTwo<>(SB), Y1, Y1 // −2·ln s
	VDIVPD     Y0, Y1, Y1                  // / s
	VSQRTPD    Y1, Y1
	VMULPD     (SI)(AX*8), Y1, Y1          // u·√…
	VCVTPD2PSY Y1, X1                      // z
	VMULPS     X13, X1, X1                 // std·z
	VADDPS     X12, X1, X1                 // mean + std·z
	VMOVUPS    X1, (DI)(AX*4)
	ADDQ       $4, AX
	JMP        polarLoop

polarDone:
	VZEROUPPER
	RET

// func logKernel(dst, src *float64, n int)
TEXT ·logKernel(SB), NOSPLIT, $0-24
	MOVQ    dst+0(FP), DI
	MOVQ    src+8(FP), SI
	MOVQ    n+16(FP), CX
	VMOVUPD logOne<>(SB), Y15
	VMOVUPD logHSqrt2<>(SB), Y14
	XORQ    AX, AX

logLoop:
	CMPQ    AX, CX
	JGE     logDone
	VMOVUPD (SI)(AX*8), Y0
	LOG4
	VMOVUPD Y1, (DI)(AX*8)
	ADDQ    $4, AX
	JMP     logLoop

logDone:
	VZEROUPPER
	RET
