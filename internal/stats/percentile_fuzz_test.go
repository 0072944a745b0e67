package stats

import (
	"encoding/binary"
	"math"
	"sort"
	"testing"
)

// FuzzPercentiles decodes arbitrary bytes into float64 samples (one
// leading byte picks how many distinct values they take, so ties are
// common) and a set of percentiles, and requires SelectPercentiles to
// match sorting then PercentileSorted. Run with
// `go test -fuzz=FuzzPercentiles ./internal/stats`; the seed corpus runs
// with every plain `go test`.
func FuzzPercentiles(f *testing.F) {
	seed := func(distinct byte, vals ...float64) []byte {
		b := []byte{distinct}
		for _, v := range vals {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	f.Add(seed(0, 1, 2, 3, 4, 5), 50.0, 95.0, 99.0)
	f.Add(seed(0, 3), 0.0, 50.0, 100.0)
	f.Add(seed(2, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17), 50.0, 95.0, 99.0)
	f.Add(seed(0, math.NaN(), 1, math.Inf(1), -2, math.Inf(-1)), 10.0, 50.0, 90.0)
	f.Add(seed(1, 4, 4, 4, 4), 25.0, 50.0, 75.0)
	f.Fuzz(func(t *testing.T, data []byte, p1, p2, p3 float64) {
		if len(data) == 0 {
			return
		}
		distinct := int(data[0])
		var xs []float64
		for data = data[1:]; len(data) >= 8; data = data[8:] {
			x := math.Float64frombits(binary.LittleEndian.Uint64(data[:8]))
			if distinct > 0 && x == x {
				x = math.Mod(math.Abs(x), float64(distinct))
				x = math.Floor(x)
			}
			xs = append(xs, x)
		}
		ps := []float64{p1, p2, p3}
		for _, p := range ps {
			if p != p {
				return // NaN percentiles have no order
			}
		}
		sort.Float64s(ps)
		checkSelected(t, xs, ps)
	})
}
