//go:build amd64 && !purego

#include "textflag.h"

// func cpuFeatures() (avx, avx2, fma, avx512 bool)
TEXT ·cpuFeatures(SB), NOSPLIT, $0-4
	MOVB $0, avx+0(FP)
	MOVB $0, avx2+1(FP)
	MOVB $0, fma+2(FP)
	MOVB $0, avx512+3(FP)
	MOVL $1, AX
	XORL CX, CX
	CPUID
	MOVL CX, SI
	ANDL $0x18000000, CX // OSXSAVE | AVX
	CMPL CX, $0x18000000
	JNE  done
	XORL CX, CX
	XGETBV
	MOVL AX, DI // XCR0, low half
	ANDL $6, AX // XCR0: XMM and YMM state enabled
	CMPL AX, $6
	JNE  done
	MOVB $1, avx+0(FP)
	BTL  $12, SI // FMA
	JCC  leaf7
	MOVB $1, fma+2(FP)

leaf7:
	XORL AX, AX
	CPUID
	CMPL AX, $7 // highest basic leaf
	JLT  done
	MOVL $7, AX
	XORL CX, CX
	CPUID
	BTL  $5, BX // AVX2
	JCC  avx512
	MOVB $1, avx2+1(FP)

avx512:
	BTL  $16, BX // AVX512F
	JCC  done
	ANDL $0xe6, DI // XCR0: XMM, YMM, opmask, ZMM_Hi256 and Hi16_ZMM state enabled
	CMPL DI, $0xe6
	JNE  done
	MOVB $1, avx512+3(FP)

done:
	RET
