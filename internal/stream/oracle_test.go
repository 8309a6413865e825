package stream

import (
	"fmt"

	"egi/internal/engine"
	"egi/internal/grammar"
	"egi/internal/timeseries"
)

// DetectChunkedOracle is the batch chunk-and-stitch loop written out over
// whole-series prefix sums, kept as the reference egi.DetectChunked and
// the default-hop stream are checked against: chunk k covers
// [k*stride, k*stride+chunkLen) with stride chunkLen-Window+1 (the last
// chunk clipped at the series end), runs with seed Seed+k*SeedStride,
// and overlapping chunk curves are averaged; a chunk with no usable
// curves adds coverage but no density. It expects chunkLen < len(series)
// and returns the stitched curve and its ranked candidates.
//
// It is exported only to the package's tests, so the external-package
// differential test can compare it with the public entry point.
func DetectChunkedOracle(series []float64, cfg engine.Config, chunkLen int) ([]float64, []grammar.Candidate, error) {
	cfg, err := cfg.Normalized()
	if err != nil {
		return nil, nil, err
	}
	f, err := timeseries.NewFeatures(series)
	if err != nil {
		return nil, nil, err
	}
	eng, err := engine.New(cfg)
	if err != nil {
		return nil, nil, err
	}
	stride := chunkLen - cfg.Window + 1
	sum := make([]float64, len(series))
	count := make([]float64, len(series))
	for chunkIdx, start := 0, 0; start < len(series); chunkIdx, start = chunkIdx+1, start+stride {
		end := min(start+chunkLen, len(series))
		if end-start < cfg.Window {
			break // tail already fully covered by the previous chunk
		}
		res, err := eng.DetectSpan(f, start, end, start+stride, cfg.Seed+int64(chunkIdx)*engine.SeedStride)
		switch {
		case err == engine.ErrNoUsableCurves:
			for i := start; i < end; i++ {
				count[i]++
			}
		case err != nil:
			return nil, nil, fmt.Errorf("chunk %d [%d,%d): %w", chunkIdx, start, end, err)
		default:
			for i, v := range res.Curve {
				sum[start+i] += v
				count[start+i]++
			}
		}
		if end == len(series) {
			break
		}
	}
	for i := range sum {
		if count[i] > 0 {
			sum[i] /= count[i]
		}
	}
	cands, err := grammar.RankAnomalies(sum, cfg.Window, cfg.TopK)
	if err != nil {
		return nil, nil, err
	}
	return sum, cands, nil
}
