package workload

import (
	"math"

	"gimbal/internal/sim"
)

// Zipf generates Zipfian-distributed keys in [0, n) with skew theta,
// using the Gray et al. rejection-free method YCSB itself uses, so the
// paper's "Zipfian distribution of skewness 0.99" is matched exactly.
type Zipf struct {
	rng   *sim.RNG
	n     uint64
	rank1 float64 // 1 + 0.5^theta: where rank 1's share of u*zetan ends
	alpha float64
	zetan float64
	eta   float64
	zeta2 float64
}

// NewZipf returns a generator over [0, n). theta must be in (0, 1); YCSB's
// default is 0.99.
func NewZipf(rng *sim.RNG, n uint64, theta float64) *Zipf {
	if n == 0 || theta <= 0 || theta >= 1 {
		panic("workload: bad zipf parameters")
	}
	z := &Zipf{rng: rng, n: n, rank1: 1 + math.Pow(0.5, theta)}
	z.zetan = zeta(n, theta)
	z.zeta2 = zeta(2, theta)
	z.alpha = 1.0 / (1.0 - theta)
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - z.zeta2/z.zetan)
	return z
}

func zeta(n uint64, theta float64) float64 {
	// Exact up to a cutoff, then the Euler–Maclaurin integral
	// approximation; exact summation over hundreds of millions of keys
	// would dominate startup time.
	const cutoff = 1 << 20
	if n <= cutoff {
		sum := 0.0
		for i := uint64(1); i <= n; i++ {
			sum += 1 / math.Pow(float64(i), theta)
		}
		return sum
	}
	sum := zeta(cutoff, theta)
	// ∫ x^-theta dx from cutoff to n.
	sum += (math.Pow(float64(n), 1-theta) - math.Pow(float64(cutoff), 1-theta)) / (1 - theta)
	return sum
}

// Next returns the next key. Rank 0 is the hottest key; callers typically
// scatter ranks over the keyspace with a hash to avoid clustering.
func (z *Zipf) Next() uint64 {
	u := z.rng.Float64()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < z.rank1 {
		return 1
	}
	return uint64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
}

// ScatteredNext returns the next key with ranks scattered uniformly over
// the keyspace via a multiplicative hash (YCSB's fnv-scramble equivalent).
func (z *Zipf) ScatteredNext() uint64 {
	r := z.Next()
	return (r * 0x9e3779b97f4a7c15) % z.n
}

// Latest generates the YCSB-D "latest" distribution: zipfian skew toward
// the most recently inserted keys.
type Latest struct {
	z    *Zipf
	base uint64 // current insertion frontier
}

// NewLatest returns a latest-distribution generator with an initial
// frontier of n existing records.
func NewLatest(rng *sim.RNG, n uint64, theta float64) *Latest {
	return &Latest{z: NewZipf(rng, n, theta), base: n}
}

// Insert advances the frontier (a new record was inserted).
func (l *Latest) Insert() { l.base++ }

// Next returns a key skewed toward the frontier.
func (l *Latest) Next() uint64 {
	r := l.z.Next()
	if r >= l.base {
		r = l.base - 1
	}
	return l.base - 1 - r
}

// Frontier returns the current record count.
func (l *Latest) Frontier() uint64 { return l.base }
