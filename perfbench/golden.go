package main

import (
	"embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"

	"cellbe/internal/core"
)

// The goldens pin the simulated answers of the code they were generated
// from: cycles, transfers, wait cycles and GB/s of every stream-sweep
// point for the default seed, and every sample of every paper-figures
// curve for each layout base.
//
//go:embed golden/*.json
var goldenFS embed.FS

const (
	streamGoldenFile  = "golden/stream-sweep.json"
	figuresGoldenFile = "golden/paper-figures.json"
	defaultSeed       = 1
)

type goldens struct {
	stream  map[int64][][]pointOut          // by seed
	figures map[int64]map[string][]curveOut // by layout base, then experiment
}

// loadGoldens reads the embedded goldens; corrupt perturbs one value of
// each, so every comparison against them must fail.
func loadGoldens(corrupt bool) (*goldens, error) {
	g := &goldens{}
	for file, v := range map[string]any{streamGoldenFile: &g.stream, figuresGoldenFile: &g.figures} {
		b, err := goldenFS.ReadFile(file)
		if err != nil {
			return nil, err
		}
		if err := json.Unmarshal(b, v); err != nil {
			return nil, fmt.Errorf("%s: %w", file, err)
		}
	}
	if corrupt {
		for seed, grids := range g.stream {
			g.stream[seed] = corruptPoints(grids)
		}
		for base, figs := range g.figures {
			for name, cs := range figs {
				g.figures[base][name] = corruptCurves(cs)
			}
		}
	}
	return g, nil
}

// corruptPoints returns a copy of grids with one cycle count off by one.
func corruptPoints(grids [][]pointOut) [][]pointOut {
	out := make([][]pointOut, len(grids))
	for i, g := range grids {
		out[i] = slices.Clone(g)
	}
	out[len(out)-1][len(out[len(out)-1])-1].Cycles++
	return out
}

// corruptCurves returns a copy of cs with one sample off by a relative
// 1e-15, a few ulps: the comparison must be exact to catch it.
func corruptCurves(cs []curveOut) []curveOut {
	b, _ := json.Marshal(cs)
	var out []curveOut
	json.Unmarshal(b, &out)
	s := out[len(out)-1].Samples
	v := s[len(s)-1]
	v[len(v)-1] *= 1 + 1e-15
	return out
}

// writeGoldens regenerates both golden files from the current code.
func writeGoldens() error {
	w := &streamSweep{seed: defaultSeed}
	if err := w.setup(); err != nil {
		return err
	}
	w.close()
	if err := writeJSON(streamGoldenFile, map[int64][][]pointOut{defaultSeed: w.ref}); err != nil {
		return err
	}
	figs := make(map[int64]map[string][]curveOut)
	for base := int64(1); base <= figureSeeds; base++ {
		p := figureParams(base - 1)
		figs[p.FirstSeed] = make(map[string][]curveOut)
		for _, name := range figureSet {
			e, err := core.Lookup(name)
			if err != nil {
				return err
			}
			res, err := e.Run(p)
			if err != nil {
				return err
			}
			figs[p.FirstSeed][name] = curvesOf(res)
		}
	}
	return writeJSON(figuresGoldenFile, figs)
}

func writeJSON(file string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	path := filepath.Join("perfbench", file)
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("wrote", path)
	return nil
}
