package server

import (
	"encoding/binary"
	"math"
	"math/big"
	"math/bits"
)

const minPow10, maxPow10 = -348, 347 // the powers of ten wide10 holds

// pow10 are the powers of ten a float64 holds exactly.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// wide10[e-minPow10] is the top 128 bits of 10^e, rounded down, as {low,
// high} words with the top bit set, for every e whose product with a uint64
// can be a normal float64. Computed at start-up (0.7 ms), as 10^(e+348) /
// 10^348 cut to 128 bits; TestWide10 pins rows against the published table.
var wide10 = func() (t [maxPow10 - minPow10 + 1][2]uint64) {
	num, ten := big.NewInt(1), big.NewInt(10)
	den := new(big.Float).SetInt(new(big.Int).Exp(ten, big.NewInt(-minPow10), nil))
	q := new(big.Float).SetPrec(128).SetMode(big.ToZero)
	for i := range t {
		q.Quo(new(big.Float).SetInt(num), den)
		n, _ := q.SetMantExp(q, 128-q.MantExp(nil)).Int(nil) // the mantissa as an integer
		w := n.FillBytes(make([]byte, 16))
		t[i] = [2]uint64{binary.BigEndian.Uint64(w[8:]), binary.BigEndian.Uint64(w)}
		num.Mul(num, ten)
	}
	return t
}()

// eiselLemire returns the float64 nearest man × 10^e10 by the algorithm
// strconv.ParseFloat runs first (the steps are named as in
// https://nigeltao.github.io/blog/2020/eisel-lemire.html), or ok false
// when 128 bits of the product do not decide the rounding or the result
// is not a normal float64, which leaves the token to strconv.
func eiselLemire(man uint64, e10 int) (f float64, ok bool) {
	if man == 0 || e10 < minPow10 || e10 > maxPow10 {
		return 0, man == 0
	}
	pow := &wide10[e10-minPow10]
	// Normalization: 217706/2^16 is log2(10) as closely as the table needs.
	lz := bits.LeadingZeros64(man)
	man <<= uint(lz)
	exp2 := uint64(217706*e10>>16+64+1023) - uint64(lz)
	// Multiplication by the high word; wider approximation when the nine
	// bits under the 54 that count are all ones and a carry could reach them.
	hi, lo := bits.Mul64(man, pow[1])
	if hi&0x1FF == 0x1FF && lo+man < man {
		hi2, lo2 := bits.Mul64(man, pow[0])
		mid := lo + hi2
		if mid < lo {
			hi++
		}
		if hi&0x1FF == 0x1FF && mid+1 == 0 && lo2+man < man {
			return 0, false
		}
		lo = mid
	}
	// Shifting to 54 bits; half-way ambiguity declined.
	msb := hi >> 63
	m := hi >> (msb + 9)
	exp2 -= 1 ^ msb
	if lo == 0 && hi&0x1FF == 0 && m&3 == 1 {
		return 0, false
	}
	// From 54 to 53 bits, half up, the carry perhaps lengthening m.
	if m = (m + m&1) >> 1; m>>53 > 0 {
		m >>= 1
		exp2++
	}
	// Subnormal, zero or overflow (exp2 is unsigned: below 1 wraps high).
	if exp2-1 >= 0x7FF-1 {
		return 0, false
	}
	return math.Float64frombits(exp2<<52 | m&(1<<52-1)), true
}
