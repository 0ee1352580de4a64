package train

import (
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
