package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// minBeyond is how many samples must lie beyond a reported percentile
// above the median; with fewer, the tail is noise and is not reported.
const minBeyond = 10

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or 0 for no samples. The median is
// reported at any sample count, with the count beside it.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sortedCopy(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank q-quantile of xs. It refuses, with
// an error, unless at least minBeyond samples lie beyond the returned
// rank.
func percentile(xs []float64, q float64) (float64, error) {
	n := len(xs)
	k := int(math.Ceil(q*float64(n) - 1e-9)) // 1e-9 absorbs float error in q*n
	if k < 1 {
		k = 1
	}
	if beyond := n - k; beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, needs %d", q*100, n, beyond, minBeyond)
	}
	return sortedCopy(xs)[k-1], nil
}

// tailNote names the highest of p99.9, p99, p95 and p90 of xs that has
// at least minBeyond samples beyond it, or says that none has.
func tailNote(name string, xs []float64) string {
	for _, q := range []float64{0.999, 0.99, 0.95, 0.90} {
		if v, err := percentile(xs, q); err == nil {
			return fmt.Sprintf("%s_p%g_ms %.6g ms (n=%d)", name, q*100, v, len(xs))
		}
	}
	return fmt.Sprintf("%s: too few samples for a p90 or above with %d beyond it (n=%d)", name, minBeyond, len(xs))
}

// quartiles returns the first and third quartiles of xs by the method
// Python's statistics.quantiles(xs, n=4) uses (exclusive, interpolated).
// It needs at least two samples.
func quartiles(xs []float64) (q1, q3 float64, ok bool) {
	n := len(xs)
	if n < 2 {
		return 0, 0, false
	}
	s := sortedCopy(xs)
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3), true
}

// spread is the interquartile range of xs as a share of its median;
// +Inf when it cannot be measured.
func spread(xs []float64) float64 {
	q1, q3, ok := quartiles(xs)
	med := median(xs)
	if !ok || med == 0 {
		return math.Inf(1)
	}
	return (q3 - q1) / math.Abs(med)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func durationsMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// peakRSSMiB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
		if err != nil {
			return 0, fmt.Errorf("peak RSS: parse %q: %w", rest, err)
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM line in /proc/self/status")
}
