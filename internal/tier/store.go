package tier

import (
	"bytes"
	"encoding/json"
	"sync"

	"pragformer/internal/api"
	"pragformer/internal/scan"
)

// storeCap bounds the router's verdict store: past it the least recently
// used verdict is evicted. DESIGN.md "Verdict store" has the measured bytes
// per verdict and the heap ceiling this sets.
const storeCap = 1 << 16

// verdict is one entry of the router's store. /suggest relays a verdict as
// the replica rendered it, its wire bytes; the scan pipeline under the
// router's /scan reads and writes it as a *scan.Suggestion. An entry holds
// the form it was stored in, and the other is built from that at most once,
// on first use, and kept beside it. Neither form is written once built.
type verdict struct {
	wireOnce, sugOnce sync.Once
	wire              json.RawMessage
	sug               *scan.Suggestion
}

// wireBytes is the verdict as one /suggest result.
func (v *verdict) wireBytes() json.RawMessage {
	v.wireOnce.Do(func() {
		if v.wire == nil {
			v.wire, _ = json.Marshal(api.SuggestResult{Suggestion: *v.sug})
		}
	})
	return v.wire
}

// suggestion is the verdict in report form.
func (v *verdict) suggestion() *scan.Suggestion {
	v.sugOnce.Do(func() {
		if v.sug == nil {
			s := new(scan.Suggestion)
			_ = json.Unmarshal(v.wire, s)
			v.sug = s
		}
	})
	return v.sug
}

// errorPrefix is how every rendered error item begins: an item that failed
// carries its error and nothing else, and a verdict never has the key.
var errorPrefix = func() []byte {
	b, _ := json.Marshal(api.SuggestResult{Error: "x"})
	return b[:bytes.LastIndex(b, []byte(`"x"`))]
}()

// isErrorItem tells a relayed error item from a verdict without decoding it.
func isErrorItem(b json.RawMessage) bool { return bytes.HasPrefix(b, errorPrefix) }

// pinnedStore is the router's store as one /suggest or /scan request sees
// it: reads count into the fleet-wide hit/miss tallies, and puts are pinned
// to the generation read when the request started (before anything was
// routed), so a verdict whose forward straddled a reload is dropped
// instead of being filed under the new bundle's generation. It is the scan
// pipeline's scan.VerdictStore on the router.
type pinnedStore struct {
	rt  *Router
	gen uint64
}

func (rt *Router) pinStore() pinnedStore { return pinnedStore{rt: rt, gen: rt.store.Gen()} }

func (s pinnedStore) Get(hash string) (*scan.Suggestion, bool) {
	v, ok := s.probe(hash)
	s.count(ok)
	if !ok {
		return nil, false
	}
	return v.suggestion(), true
}

// probe, probeDigest and count are Get in steps for answerSuggest, where an
// item may take two probes (its text's digest, then its canonical print's
// hash) and counts as one hit or one miss. probeDigest reads the hex digits
// in place, so a hit makes no string of them.
func (s pinnedStore) probe(hash string) (*verdict, bool) { return s.rt.store.Get(hash) }

func (s pinnedStore) probeDigest(digits []byte) (*verdict, bool) { return s.rt.store.GetBytes(digits) }

func (s pinnedStore) count(hit bool) {
	if hit {
		s.rt.storeHits.Inc()
	} else {
		s.rt.storeMisses.Inc()
	}
}

// Put stores a verdict in report form, taking ownership of it. Nil
// suggestions are ignored.
func (s pinnedStore) Put(hash string, sg *scan.Suggestion) {
	if sg != nil {
		s.rt.store.PutAt(s.gen, hash, &verdict{sug: sg})
	}
}

// putWire stores a verdict as the replica rendered it.
func (s pinnedStore) putWire(hash string, b json.RawMessage) {
	s.rt.store.PutAt(s.gen, hash, &verdict{wire: b})
}
