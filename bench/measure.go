package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// errExhausted ends a connection's loop early: a workload whose inputs may
// be used only once has run out of them. The run stays valid — rates are
// items over the wall time actually measured — and the result says so.
var errExhausted = errors.New("inputs exhausted")

// opFunc runs one operation on one connection and returns the items it
// completed. rec is nil unless the segment is traced.
type opFunc func(conn int, rec *recorder) (items int, err error)

// segment is one measured slice of a run. Rates and CPU are per segment so
// that a burst from a neighbour spoils one segment and not the run. Every
// segment is printed and counted; a busy one is flagged, never dropped.
type segment struct {
	Traced      bool
	WallS       float64
	Ops         int
	Items       int
	Failed      int
	CPUS        float64
	RunqDelayMs float64 // time runnable threads waited for a CPU
	StealTicks  float64 // host-wide steal, USER_HZ ticks
	Flagged     bool
}

func (s segment) itemsPerS() float64 { return float64(s.Items) / s.WallS }
func (s segment) cpuMsPerItem() float64 {
	return s.CPUS * 1000 / float64(s.Items)
}

// runSegment drives op in a closed loop on conns connections for d and
// returns the segment plus each op's latency in ms. An op that straddles
// the deadline belongs to this segment, and the segment's wall time runs
// until the last connection has its reply.
func runSegment(conns int, d time.Duration, op opFunc, rec *recorder) (segment, []float64, error) {
	type connOut struct {
		lat           []float64
		items, failed int
		err           error
	}
	outs := make([]connOut, conns)
	cpu0, rq0, st0 := cpuSeconds(), runqDelayNs(), stealTicks()
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			o := &outs[c]
			o.lat = make([]float64, 0, 1<<12)
			for time.Now().Before(deadline) {
				t0 := time.Now()
				n, err := op(c, rec)
				if errors.Is(err, errExhausted) {
					o.err = err
					return
				}
				o.lat = append(o.lat, float64(time.Since(t0).Nanoseconds())/1e6)
				if err != nil {
					o.failed++
					if o.err == nil {
						o.err = err
					}
					continue
				}
				o.items += n
			}
		}(c)
	}
	wg.Wait()
	seg := segment{Traced: rec != nil, WallS: time.Since(start).Seconds()}
	seg.CPUS = cpuSeconds() - cpu0
	seg.RunqDelayMs = float64(runqDelayNs()-rq0) / 1e6
	seg.StealTicks = stealTicks() - st0
	var lat []float64
	var err error
	for _, o := range outs {
		lat = append(lat, o.lat...)
		seg.Ops += len(o.lat)
		seg.Items += o.items
		seg.Failed += o.failed
		if err == nil {
			err = o.err
		}
	}
	return seg, lat, err
}

// flagBusy marks the segments during which the host looks to have been
// busy with someone else: threads waited for a CPU half as long again as in
// the run's median segment (how long they wait on a quiet host depends on
// the workload), or steal was over 1 % of the segment (USER_HZ is 100).
func flagBusy(segs []segment) {
	var perS []float64
	for _, s := range segs {
		perS = append(perS, s.RunqDelayMs/s.WallS)
	}
	typical := median(perS)
	for i := range segs {
		segs[i].Flagged = perS[i] > 1.5*typical+10 || segs[i].StealTicks > segs[i].WallS
	}
}

// cpuSeconds is user+system CPU of the whole process, load generator
// included.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// runqDelayNs sums, over the process's threads, the time spent runnable
// but waiting for a CPU (second field of /proc/<pid>/task/<tid>/schedstat).
func runqDelayNs() int64 {
	files, _ := filepath.Glob("/proc/self/task/*/schedstat")
	var total int64
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		if fs := strings.Fields(string(b)); len(fs) >= 2 {
			n, _ := strconv.ParseInt(fs[1], 10, 64)
			total += n
		}
	}
	return total
}

// stealTicks is the host-wide steal counter (eighth value of the cpu line
// of /proc/stat), 0 where the kernel does not report it.
func stealTicks() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fs := strings.Fields(line)
	if len(fs) < 9 || fs[0] != "cpu" {
		return 0
	}
	v, _ := strconv.ParseFloat(fs[8], 64)
	return v
}

// liveHeapMB is HeapAlloc after two forced collections (the second one
// frees what finalizers released in the first).
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

func memStats() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

// quantile returns the q-quantile of sorted xs by nearest rank.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n == 0 {
		return math.NaN()
	} else if n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// fingerprint names the environment a result was taken in.
type fingerprint struct {
	GoVersion  string
	GOMAXPROCS int
	NProc      int
	CPUModel   string
	Commit     string
	Seed       int64
}

func newFingerprint(seed int64) fingerprint {
	fp := fingerprint{
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc: runtime.NumCPU(), CPUModel: "unknown", Commit: "unknown", Seed: seed,
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				fp.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	// The driver's checkout is not a git repository; a developer's is.
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				fp.Commit = s.Value
			}
		}
	}
	if fp.Commit == "unknown" {
		if b, err := os.ReadFile(".git/HEAD"); err == nil {
			head := strings.TrimSpace(string(b))
			if ref, ok := strings.CutPrefix(head, "ref: "); ok {
				if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
					head = strings.TrimSpace(string(b))
				}
			}
			fp.Commit = head
		}
	}
	return fp
}

func (fp fingerprint) String() string {
	return fmt.Sprintf("%s GOMAXPROCS=%d nproc=%d cpu=%q commit=%s seed=%d",
		fp.GoVersion, fp.GOMAXPROCS, fp.NProc, fp.CPUModel, fp.Commit, fp.Seed)
}
