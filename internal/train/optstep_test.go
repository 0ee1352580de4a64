package train

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"pragformer/internal/nn"
)

// demoParams builds parameters shaped like the demo classifier the
// benchmark harness trains (D 32, one block, an 8,937-token vocabulary):
// 299,234 weights, 95.6 % of them in the token embedding.
func demoParams(seed int64) []*nn.Param {
	rng := rand.New(rand.NewSource(seed))
	shapes := []struct {
		name       string
		rows, cols int
		noDecay    bool
	}{
		{"emb.tok", 8937, 32, true}, {"emb.pos", 110, 32, true},
		{"block0.ln1.g", 1, 32, true}, {"block0.ln1.b", 1, 32, true},
		{"block0.attn.wq.W", 32, 32, false}, {"block0.attn.wq.b", 1, 32, true},
		{"block0.attn.wk.W", 32, 32, false}, {"block0.attn.wk.b", 1, 32, true},
		{"block0.attn.wv.W", 32, 32, false}, {"block0.attn.wv.b", 1, 32, true},
		{"block0.attn.wo.W", 32, 32, false}, {"block0.attn.wo.b", 1, 32, true},
		{"block0.ln2.g", 1, 32, true}, {"block0.ln2.b", 1, 32, true},
		{"block0.ffn.l1.W", 32, 64, false}, {"block0.ffn.l1.b", 1, 64, true},
		{"block0.ffn.l2.W", 64, 32, false}, {"block0.ffn.l2.b", 1, 32, true},
		{"final_ln.g", 1, 32, true}, {"final_ln.b", 1, 32, true},
		{"fc1.W", 32, 32, false}, {"fc1.b", 1, 32, true},
		{"fc2.W", 32, 2, false}, {"fc2.b", 1, 2, true},
	}
	ps := make([]*nn.Param, len(shapes))
	for i, s := range shapes {
		ps[i] = nn.NewParam(s.name, s.rows, s.cols, rng, 0.02)
		ps[i].NoDecay = s.noDecay
	}
	return ps
}

// fillDemoGrads accumulates a batch's worth of gradient the way the demo's
// backward does: dense on every layer, on a few dozen rows of the token
// embedding. mag sets the overall size, so a caller can put the global norm
// on either side of the clip bound.
func fillDemoGrads(rng *rand.Rand, ps []*nn.Param, mag float64) {
	for _, p := range ps {
		g := p.Gradient()
		if p.Name == "emb.tok" {
			for k := 0; k < 40; k++ {
				row := g.Data[rng.Intn(g.Rows)*g.Cols:][:g.Cols]
				for j := range row {
					row[j] += rng.NormFloat64() * mag
				}
			}
			continue
		}
		for j := range g.Data {
			g.Data[j] += rng.NormFloat64() * mag
		}
	}
}

// fivePassAdamW is the optimizer step as it ran before it became one fused
// sweep: average the gradients in place, clip them in place, update the
// moments and weights, clear the gradients — five passes over every weight.
type fivePassAdamW struct {
	step int
	m, v map[*nn.Param][]float64
}

func (o *fivePassAdamW) optStep(h *AdamW, params []*nn.Param, batch int, clipNorm, lrScale float64) {
	inv := 1 / float64(batch)
	for _, p := range params {
		p.Gradient().ScaleInPlace(inv)
	}
	if clipNorm > 0 {
		total := 0.0
		for _, p := range params {
			for _, g := range p.Gradient().Data {
				total += g * g
			}
		}
		norm := math.Sqrt(total)
		if norm > clipNorm && norm > 0 {
			scale := clipNorm / norm
			for _, p := range params {
				p.Grad.ScaleInPlace(scale)
			}
		}
	}
	o.step++
	bc1 := 1 - math.Pow(h.Beta1, float64(o.step))
	bc2 := 1 - math.Pow(h.Beta2, float64(o.step))
	lr := h.LR * lrScale
	for _, p := range params {
		m := o.m[p]
		if m == nil {
			m = make([]float64, len(p.W.Data))
			o.m[p] = m
			o.v[p] = make([]float64, len(p.W.Data))
		}
		v := o.v[p]
		w := p.W.Data
		g := p.Gradient().Data
		for i := range w {
			m[i] = h.Beta1*m[i] + (1-h.Beta1)*g[i]
			v[i] = h.Beta2*v[i] + (1-h.Beta2)*g[i]*g[i]
			mhat := m[i] / bc1
			vhat := v[i] / bc2
			upd := mhat / (math.Sqrt(vhat) + h.Eps)
			if !p.NoDecay {
				upd += h.WeightDecay * w[i]
			}
			w[i] -= lr * upd
		}
	}
	ZeroGrads(params)
}

// TestOptStepMatchesFivePass holds the fused optimizer step to the five
// passes it replaced, bit for bit, over 50 warm-up and full-rate steps on
// demo-shaped parameters with the clip firing on some steps and not on
// others: weights and both moments equal after every step, and every
// gradient zero.
func TestOptStepMatchesFivePass(t *testing.T) {
	const batch, clipNorm, warmup = 12, 1.0, 10
	fused, ref := demoParams(7), demoParams(7)
	opt := NewAdamW(2e-3)
	old := &fivePassAdamW{m: map[*nn.Param][]float64{}, v: map[*nn.Param][]float64{}}
	gradRNG := rand.New(rand.NewSource(8))
	fired := 0
	for step := 0; step < 50; step++ {
		// Norms of the averaged gradient run from about 0.1 to about 6.
		mag := 1e-2 * math.Pow(4, float64(step%4))
		seed := gradRNG.Int63()
		fillDemoGrads(rand.New(rand.NewSource(seed)), fused, mag)
		fillDemoGrads(rand.New(rand.NewSource(seed)), ref, mag)
		if _, scale := clipScale(fused, 1/float64(batch), clipNorm); scale != 1 {
			fired++
		}
		lrScale := WarmupScale(step, warmup)
		OptStep(opt, fused, batch, clipNorm, lrScale)
		old.optStep(opt, ref, batch, clipNorm, lrScale)
		for i, p := range fused {
			q := ref[i]
			for _, c := range []struct {
				what      string
				got, want []float64
			}{{"weight", p.W.Data, q.W.Data}, {"m", opt.m[p], old.m[q]}, {"v", opt.v[p], old.v[q]}} {
				for j := range c.want {
					if math.Float64bits(c.got[j]) != math.Float64bits(c.want[j]) {
						t.Fatalf("step %d: %s %s[%d] = %v, five-pass %v", step, p.Name, c.what, j, c.got[j], c.want[j])
					}
				}
			}
			for j, g := range p.Grad.Data {
				if math.Float64bits(g) != 0 {
					t.Fatalf("step %d: %s gradient[%d] = %v after the step", step, p.Name, j, g)
				}
			}
		}
	}
	t.Logf("clip fired on %d of 50 steps", fired)
	if fired == 0 || fired == 50 {
		t.Fatalf("clip fired on %d of 50 steps; the test needs both cases", fired)
	}
}

// TestClipScaleSkipsZeroBlocksExactly holds clipScale, which skips aligned
// all-+0 blocks of 8 gradient elements, to the dense loop that squares and
// adds every element: the norm and the scale must be the same bits. The
// gradients are random mixes, at every density from empty to full, of +0,
// −0, subnormals and normal values, with a NaN in some trials, over
// parameters whose lengths leave ragged tails after the last full block.
func TestClipScaleSkipsZeroBlocksExactly(t *testing.T) {
	dense := func(ps []*nn.Param, inv, maxNorm float64) (norm, scale float64) {
		total := 0.0
		for _, p := range ps {
			for _, g := range p.Gradient().Data {
				g *= inv
				total += g * g
			}
		}
		norm = math.Sqrt(total)
		if norm > maxNorm && norm > 0 {
			return norm, maxNorm / norm
		}
		return norm, 1
	}
	same := func(a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
	}
	rng := rand.New(rand.NewSource(5))
	shapes := [][2]int{{1, 1}, {1, 7}, {1, 8}, {1, 9}, {3, 5}, {2, 8}, {10, 17}, {40, 32}, {1, 63}}
	trials := 0
	for _, density := range []float64{0, 0.001, 0.02, 0.2, 0.7, 1} {
		for trial := 0; trial < 40; trial++ {
			ps := make([]*nn.Param, len(shapes))
			for i, sh := range shapes {
				ps[i] = nn.NewParam(fmt.Sprintf("p%d", i), sh[0], sh[1], nil, 0)
				g := ps[i].Gradient()
				for j := range g.Data {
					if rng.Float64() >= density {
						continue
					}
					switch r := rng.Intn(4); r {
					case 0:
						g.Data[j] = math.Copysign(0, -1)
					case 1:
						g.Data[j] = math.SmallestNonzeroFloat64 * float64(1+rng.Intn(1000)) * float64(1-2*rng.Intn(2))
					default:
						g.Data[j] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
					}
				}
				if trial%10 == 9 {
					g.Data[rng.Intn(len(g.Data))] = math.NaN()
				}
			}
			for _, batch := range []int{1, 3, 16} {
				inv := 1 / float64(batch)
				gotN, gotS := clipScale(ps, inv, 1)
				wantN, wantS := dense(ps, inv, 1)
				if !same(gotN, wantN) || !same(gotS, wantS) {
					t.Fatalf("density %g trial %d batch %d: clipScale = (%v, %v), dense loop (%v, %v)",
						density, trial, batch, gotN, gotS, wantN, wantS)
				}
				trials++
			}
		}
	}
	t.Logf("%d gradient sets bit-equal", trials)
}

// TestOptStepAllocs: once the first step has allocated the moments, an
// optimizer step allocates nothing.
func TestOptStepAllocs(t *testing.T) {
	ps := demoParams(1)
	opt := NewAdamW(1e-3)
	fillDemoGrads(rand.New(rand.NewSource(2)), ps, 1e-2)
	OptStep(opt, ps, 16, 1, 1)
	if n := testing.AllocsPerRun(5, func() { OptStep(opt, ps, 16, 1, 1) }); n != 0 {
		t.Errorf("OptStep allocates %v objects per step after the first, want 0", n)
	}
}

// BenchmarkOptStep times one optimizer step, clipping on, over the demo
// classifier's 299,234 parameters.
func BenchmarkOptStep(b *testing.B) {
	ps := demoParams(1)
	opt := NewAdamW(1e-3)
	fillDemoGrads(rand.New(rand.NewSource(2)), ps, 1e-2)
	OptStep(opt, ps, 16, 1, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		OptStep(opt, ps, 16, 1, 1)
	}
}
