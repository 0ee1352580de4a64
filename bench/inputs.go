package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"pragformer/internal/cast"
	"pragformer/internal/corpus"
	"pragformer/internal/cparse"
	"pragformer/internal/s2s"
)

// Input generation is the only thing --seed drives, and it is outside
// every metric. All inputs come from one corpus.Generate pass, whose
// records are distinct by construction.

// mixSeed generates the reference corpus, whose length mix every run's
// inputs follow. It is a property of the workloads, the same for every
// --seed.
const mixSeed, mixTotal = 20230225, 3000

// lengthClasses is how many classes of byte length a stream of records is
// balanced over. Corpus snippets are 108 bytes at the median and 7 KB at the
// longest, the longest tenth holds half of all bytes, and the cost of every
// path grows with length, so how many long snippets a sample happens to hold
// decides its cost. The classes hold equal shares of the reference corpus:
// the longest, from 5.4 KB up, is about a quarter of its length wide. Over
// ten seeds, allocated KB per item on scan_warm's 1300 records spread by
// 2.1 % with nine classes of line count and by 0.8 to 1.6 % with these.
const lengthClasses = 64

// lengthMix is the upper byte length of each class (the last class is open)
// and the share of the reference corpus in it.
type lengthMix struct {
	edges  []int
	shares []float64
}

// referenceMix cuts the reference corpus into lengthClasses equal shares.
// A length that many records have makes one class of several shares.
var referenceMix = sync.OnceValue(func() (mix lengthMix) {
	var lengths []int
	for _, r := range corpus.Generate(corpus.Config{Seed: mixSeed, Total: mixTotal}).Records {
		lengths = append(lengths, len(r.Code))
	}
	sort.Ints(lengths)
	for k := 1; k < lengthClasses; k++ {
		if e := lengths[k*len(lengths)/lengthClasses]; len(mix.edges) == 0 || e > mix.edges[len(mix.edges)-1] {
			mix.edges = append(mix.edges, e)
		}
	}
	mix.shares = make([]float64, len(mix.edges)+1)
	for _, l := range lengths {
		mix.shares[sort.SearchInts(mix.edges, l)] += 1.0 / float64(len(lengths))
	}
	return mix
})

// records generates want corpus snippets from seed, ordered so that every
// stretch of the result holds the length classes in the reference mix: the
// seed picks the members of each class, not how many there are. A quarter
// more records than wanted are generated, so that a class seldom runs out.
func records(seed int64, want int) []string {
	return balanced(corpus.Generate(corpus.Config{Seed: seed, Total: want + want/4 + 600}).Records, want)
}

// balanced orders recs by always taking next the class furthest behind its
// share of the reference mix. A class that has run out borrows from the
// nearest class that has not; its neighbours are within a few per cent of
// its length. recs must hold at least want records.
func balanced(recs []*corpus.Record, want int) []string {
	mix := referenceMix()
	classes := make([][]string, len(mix.shares))
	for _, r := range recs {
		c := sort.SearchInts(mix.edges, len(r.Code))
		classes[c] = append(classes[c], r.Code)
	}
	out := make([]string, 0, want)
	emitted := make([]float64, len(mix.shares))
	for len(out) < want {
		next, behind := 0, -1.0
		for c, share := range mix.shares {
			if d := share*float64(len(out)+1) - emitted[c]; d > behind {
				next, behind = c, d
			}
		}
		emitted[next]++
		from := next
		for d := 1; len(classes[from]) == 0; d++ {
			if lo := next - d; lo >= 0 && len(classes[lo]) > 0 {
				from = lo
			} else if hi := next + d; hi < len(classes) && len(classes[hi]) > 0 {
				from = hi
			}
		}
		out = append(out, classes[from][0])
		classes[from] = classes[from][1:]
	}
	return out
}

// canonicalLoops turns records into the text the router stores verdicts
// under: the canonical print of the record's first loop. About 85 % of
// records are that already; the rest carry a declaration or a helper
// function and are re-printed. Two records can share a loop, so the
// result is deduplicated again.
func canonicalLoops(recs []string) []string {
	seen := make(map[string]bool, len(recs))
	out := make([]string, 0, len(recs))
	for _, code := range recs {
		if f, err := cparse.Parse(code); err == nil {
			if loop := s2s.FirstLoop(f); loop != nil {
				code = cast.Print(loop)
			}
		}
		if !seen[code] {
			seen[code] = true
			out = append(out, code)
		}
	}
	return out
}

const (
	loopsPerFile = 6
	treeSubdirs  = 3
)

// writeTree lays recs out as a small repository under dir: loopsPerFile
// records per file, each wrapped in a function, files spread over
// treeSubdirs sub-directories. A record that carries its own helper
// function does not parse once nested in another function body; that is
// the few per cent of input that exercises cparse.ParseRecover.
func writeTree(dir string, recs []string) error {
	for f := 0; f*loopsPerFile < len(recs); f++ {
		sub := filepath.Join(dir, fmt.Sprintf("mod%d", f%treeSubdirs))
		if err := os.MkdirAll(sub, 0o755); err != nil {
			return err
		}
		var b strings.Builder
		for k := f * loopsPerFile; k < min((f+1)*loopsPerFile, len(recs)); k++ {
			fmt.Fprintf(&b, "void kernel_%d(void)\n{\n%s\n}\n\n", k, strings.TrimRight(recs[k], "\n"))
		}
		path := filepath.Join(sub, fmt.Sprintf("src%03d.c", f))
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// writeTrees splits recs into trees of perTree records each under root and
// returns their directories.
func writeTrees(root string, recs []string, perTree int) ([]string, error) {
	var dirs []string
	for i := 0; (i+1)*perTree <= len(recs); i++ {
		dir := filepath.Join(root, fmt.Sprintf("tree%03d", i))
		if err := writeTree(dir, recs[i*perTree:(i+1)*perTree]); err != nil {
			return nil, err
		}
		dirs = append(dirs, dir)
	}
	return dirs, nil
}
