package nn

// RNG is the dropout noise source: a xorshift64* stream whose entire state
// is a single uint64, so a checkpoint can capture it with State and a
// resumed run can continue the exact same noise sequence with SetState —
// something math/rand.Rand cannot offer, since its state is private. The
// generator quality is far beyond what dropout masking needs.
type RNG struct {
	state uint64
}

// NewRNG seeds a stream. The seed is mixed through splitmix64 so nearby
// seeds (model seed, seed+1, ...) produce uncorrelated streams.
func NewRNG(seed int64) *RNG {
	z := uint64(seed) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	r := &RNG{}
	r.SetState(z)
	return r
}

// Uint64 advances the stream.
func (r *RNG) Uint64() uint64 {
	r.state ^= r.state << 13
	r.state ^= r.state >> 7
	r.state ^= r.state << 17
	return r.state * 0x2545f4914f6cdd1d
}

// Skip advances the stream past n draws without using them.
func (r *RNG) Skip(n int) {
	for ; n > 0; n-- {
		r.Uint64()
	}
}

// Float64 returns a uniform sample in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// State exports the stream position for checkpointing.
func (r *RNG) State() uint64 { return r.state }

// SetState restores a stream position captured by State. Zero is not a
// valid xorshift state (the stream would stick); it is mapped to a fixed
// nonzero constant, which also makes NewRNG(seed) total for every seed.
func (r *RNG) SetState(s uint64) {
	if s == 0 {
		s = 0x9e3779b97f4a7c15
	}
	r.state = s
}
