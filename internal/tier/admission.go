package tier

import (
	"net"
	"net/http"
	"sync"
	"time"
)

// Per-client admission: a token-bucket limiter keyed on the caller's
// identity (the X-Client-ID header when present, else the remote host).
// Buckets refill at RatePerSec with Burst capacity; an empty bucket maps
// to HTTP 429 + Retry-After at the handler layer — the router's first
// admission gate, before any replica is consulted.

type limiter struct {
	rate  float64 // tokens per second
	burst float64

	mu      sync.Mutex
	buckets map[string]*bucket
}

type bucket struct {
	tokens float64
	last   time.Time
}

// maxBuckets caps the client map so an address-spinning caller cannot
// grow router memory without bound; at the cap, the stalest buckets are
// evicted (they are full or nearly full anyway after sitting idle).
const maxBuckets = 4096

// newLimiter returns nil when rate <= 0 — admission per client disabled.
func newLimiter(rate float64, burst int) *limiter {
	if rate <= 0 {
		return nil
	}
	if burst < 1 {
		burst = 1
	}
	return &limiter{rate: rate, burst: float64(burst), buckets: make(map[string]*bucket)}
}

// allow spends one token from key's bucket, reporting whether the request
// is admitted. A nil limiter admits everything.
func (l *limiter) allow(key string, now time.Time) bool {
	if l == nil {
		return true
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	b := l.buckets[key]
	if b == nil {
		if len(l.buckets) >= maxBuckets {
			l.evictStale(now)
		}
		b = &bucket{tokens: l.burst, last: now}
		l.buckets[key] = b
	}
	if dt := now.Sub(b.last).Seconds(); dt > 0 {
		b.tokens += dt * l.rate
		if b.tokens > l.burst {
			b.tokens = l.burst
		}
		b.last = now
	}
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// evictStale drops buckets idle long enough to have refilled completely —
// forgetting them loses nothing. Called with l.mu held.
func (l *limiter) evictStale(now time.Time) {
	full := time.Duration(l.burst / l.rate * float64(time.Second))
	for k, b := range l.buckets {
		if now.Sub(b.last) >= full {
			delete(l.buckets, k)
		}
	}
	// Pathological case: every bucket is active. Drop arbitrary entries —
	// a reset bucket only grants one extra burst.
	for k := range l.buckets {
		if len(l.buckets) < maxBuckets {
			break
		}
		delete(l.buckets, k)
	}
}

// clientKey identifies the caller for rate limiting.
func clientKey(r *http.Request) string {
	// The key in its canonical form: Get would build that form anew per call.
	if id := r.Header.Get("X-Client-Id"); id != "" {
		return id
	}
	if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
		return host
	}
	return r.RemoteAddr
}
