package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// samples holds a phase's per-operation values by name.
type samples map[string][]float64

func (s samples) add(name string, v float64) { s[name] = append(s[name], v) }

// med is the median of the named samples, or 0 if there are none.
func (s samples) med(name string) float64 { return median(s[name]) }

// sum is the total of the named samples.
func (s samples) sum(name string) float64 {
	var t float64
	for _, v := range s[name] {
		t += v
	}
	return t
}

// metricValues maps metric names to their reported values.
type metricValues map[string]float64

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func sorted(vals []float64) []float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return s
}

func median(vals []float64) float64 { return quantile(sorted(vals), 0.5) }

// quantile is the p-quantile of sorted data by the same rule as Python's
// statistics.quantiles (the default "exclusive" method): position
// p*(n+1), interpolated, clamped to the extremes. For p = 0.5 it is the
// ordinary median.
func quantile(s []float64, p float64) float64 {
	n := len(s)
	switch n {
	case 0:
		return 0
	case 1:
		return s[0]
	}
	m := p * float64(n+1)
	j := int(math.Floor(m))
	switch {
	case j < 1:
		return s[0]
	case j >= n:
		return s[n-1]
	}
	return s[j-1] + (m-float64(j))*(s[j]-s[j-1])
}

// summary describes one metric's samples within a run: count, median,
// quartiles and the highest of p99/p90 that has at least ten samples
// beyond it.
type summary struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Pct    int     `json:"pct,omitempty"`
	PctVal float64 `json:"pct_value,omitempty"`
}

func summarize(vals []float64) summary {
	s := sorted(vals)
	out := summary{N: len(s), Median: quantile(s, 0.5), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75)}
	for _, p := range []int{99, 90} {
		if float64(len(s))*float64(100-p)/100 >= 10 {
			out.Pct, out.PctVal = p, quantile(s, float64(p)/100)
			break
		}
	}
	return out
}

func (s summary) note() string {
	if s.N == 0 {
		return ""
	}
	out := fmt.Sprintf("  (n=%d median=%.6g q1=%.6g q3=%.6g", s.N, s.Median, s.Q1, s.Q3)
	if s.Pct > 0 {
		out += fmt.Sprintf(" p%d=%.6g", s.Pct, s.PctVal)
	}
	return out + ")"
}

// stamp is the provenance of one result.
type stamp struct {
	Commit     string    `json:"commit"`
	GoVersion  string    `json:"go_version"`
	NumCPU     int       `json:"num_cpu"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	Workload   string    `json:"workload"`
	Seed       uint64    `json:"seed"`
	Seconds    float64   `json:"seconds"`
	Trace      bool      `json:"trace"`
	Scale      string    `json:"scale"`
	Time       time.Time `json:"time"`
}

func newStamp(cfg config) stamp {
	return stamp{
		Commit: commit(), GoVersion: runtime.Version(),
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workload: cfg.Workload, Seed: cfg.Seed, Seconds: cfg.Seconds,
		Trace: cfg.Trace, Scale: cfg.Scale, Time: time.Now().UTC(),
	}
}

func (s stamp) String() string {
	return fmt.Sprintf("commit=%s go=%s numcpu=%d gomaxprocs=%d workload=%s seed=%d seconds=%g trace=%t scale=%s",
		s.Commit, s.GoVersion, s.NumCPU, s.GOMAXPROCS, s.Workload, s.Seed, s.Seconds, s.Trace, s.Scale)
}

// commit names the source the binary was built from: the VCS revision
// the toolchain stamped, or, in a checkout without version control, a
// hash of the module's Go sources and module files.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", ""
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				rev = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+dirty"
			}
		}
		if rev != "" {
			return rev + dirty
		}
	}
	h := sha256.New()
	// The benchmark runs from the root of the checkout.
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "go.mod")) {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", path, len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return "tree-" + hex.EncodeToString(h.Sum(nil))[:16]
}
