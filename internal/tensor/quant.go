package tensor

import (
	"math"
	"math/bits"
)

// Stochastic level quantization and bit packing — the inner loops of the
// QSGD encoder. Split out of the compress package so the amd64 build can
// dispatch the quantization loop to the SSE2 kernel in simd_amd64.s (with
// the scalar loop below as the portable fallback and odd-tail cleanup).

// QuantizeFields computes, for every element of g, the packed field
//
//	signbit(g[i]) | level<<1
//
// where level is |g[i]|/norm*levels stochastically rounded: floor, promoted
// by one with probability equal to the fractional part (promote when
// rnd[i] < frac), clamped to levels. All arithmetic is float64, matching the
// Alistarh et al. scheme: scaled = float64(|x|)/float64(norm)*float64(levels).
// rnd must hold one uniform [0,1) variate per element (see RNG.Float64Vec);
// consuming pre-generated variates keeps the RNG sequence identical between
// the vector and scalar paths. norm must be > 0 and g free of NaN/Inf.
// len(fields) and len(rnd) must be >= len(g).
func QuantizeFields(fields []uint32, g []float32, rnd []float64, norm float32, levels int) {
	_ = fields[:len(g)]
	_ = rnd[:len(g)]
	done := quantFieldsArch(fields, g, rnd, norm, levels)
	quantFieldsScalar(fields[done:], g[done:], rnd[done:], norm, levels)
}

func quantFieldsScalar(fields []uint32, g []float32, rnd []float64, norm float32, levels int) {
	nf := float64(norm)
	sf := float64(levels)
	smax := uint32(levels)
	for i, x := range g {
		sign := math.Float32bits(x) >> 31
		scaled := math.Abs(float64(x)) / nf * sf
		level := uint32(scaled)
		if rnd[i] < scaled-float64(level) {
			level++
		}
		if level > smax {
			level = smax
		}
		fields[i] = sign | level<<1
	}
}

// PackFields ORs bitsPer-wide fields into words LSB-first starting at bit
// offset bitPos, and returns the advanced offset. words must be zeroed (or
// already partially packed below bitPos) by the caller. When bitsPer divides
// 32 — the common case: 4-bit QSGD fields at the paper's s=4, 2-bit fields
// at qsgd(levels=1) — fields never straddle a word boundary and the spill
// branch is dropped from the inner loop.
func PackFields(words []uint32, fields []uint32, bitsPer uint, bitPos uint64) uint64 {
	w := int(bitPos / 32)
	off := uint(bitPos % 32)
	if 32%bitsPer == 0 {
		for _, f := range fields {
			words[w] |= f << off
			off += bitsPer
			if off == 32 {
				off = 0
				w++
			}
		}
	} else {
		for _, f := range fields {
			words[w] |= f << off
			if off+bitsPer > 32 {
				words[w+1] |= f >> (32 - off)
			}
			off += bitsPer
			if off >= 32 {
				off -= 32
				w++
			}
		}
	}
	return bitPos + uint64(len(fields))*uint64(bitsPer)
}

// EliasGammaSignPack is the batched Elias-gamma bit-writer behind the QSGD
// Elias encoder: for every quantization field (signbit | level<<1, the
// QuantizeFields layout) it emits gamma(level+1) followed by the sign bit
// iff level > 0, MSB-first starting at stream offset bitPos, and returns the
// advanced offset. The code for one field is built in a register and ORed
// into the word stream with one unconditional two-word store, replacing the
// bit-at-a-time writer.
//
// Contract: every field's level must satisfy level+1 < 1<<15 (the QSGD
// constructor guard), so one code is at most 30 bits and never spans more
// than two words; words must be zero from bit bitPos on and hold one spare
// word past the final bit (the second store of the pair is unconditional).
// On amd64 the loop is the assembly kernel in simd_amd64.s; the scalar loop
// below is the portable fallback, bit-identical by construction.
func EliasGammaSignPack(words []uint32, fields []uint32, bitPos uint64) uint64 {
	return eliasPackArch(words, fields, bitPos)
}

func eliasPackScalar(words []uint32, fields []uint32, bitPos uint64) uint64 {
	for _, f := range fields {
		level := f >> 1
		v := level + 1
		n0 := uint(bits.Len32(v)) - 1
		width := 2*n0 + 1
		code := uint64(v)
		if level > 0 {
			code = code<<1 | uint64(f&1)
			width++
		}
		w := bitPos >> 5
		o := uint(bitPos & 31)
		tmp := code << (64 - width - o)
		words[w] |= uint32(tmp >> 32)
		words[w+1] |= uint32(tmp)
		bitPos += uint64(width)
	}
	return bitPos
}

// EliasGammaSignBits returns the exact stream length in bits of
// EliasGammaSignPack over fields — the sizing pass that lets the encoder
// pre-zero and bound its word buffer before packing.
func EliasGammaSignBits(fields []uint32) uint64 {
	var n uint64
	for _, f := range fields {
		level := f >> 1
		n0 := uint64(bits.Len32(level+1)) - 1
		n += 2*n0 + 1
		if level > 0 {
			n++
		}
	}
	return n
}
