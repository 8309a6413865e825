package grammar

import (
	"testing"

	"egi/internal/gen"
	"egi/internal/sax"
)

// BenchmarkDetectSingle times the single-run detector end to end on
// gen.ECG(50000, 200, 1): one member of the paper's grid, (6,6), and one
// above sax.MaxPackedW, (14,9), whose words are keyed by string.
func BenchmarkDetectSingle(b *testing.B) {
	s, err := gen.ECG(50000, 200, 1)
	if err != nil {
		b.Fatal(err)
	}
	for _, p := range []sax.Params{{W: 6, A: 6}, {W: 14, A: 9}} {
		b.Run(p.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Detect(s, 200, p, nil, 3); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
