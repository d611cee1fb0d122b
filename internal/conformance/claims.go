package conformance

// sections is the reproduction record itself: every EXPERIMENTS.md table
// row as a Claim carrying both its rendered cells (Label/Paper/Measured/
// Match — the "Measured" numbers come from the checked-in full-volume run)
// and the executable checks that guard the row's physics at the quick-run
// parameters. The document is generated from this slice (see Doc), so a
// row cannot exist without a check and a check cannot drift from its row.
var sections = []Section{
	{
		Title: "## Figure 3 — PPE to L1 cache",
		Claims: []Claim{
			{
				ID:       "fig3/load-half-peak",
				Label:    "load 1T, ≥8 B",
				Paper:    "half peak ≈ 8.4; no gain at 16 B",
				Measured: "8.40 at 4/8/16 B",
				Match:    "✓",
				Short:    true,
				Checks: []Check{
					Range{M: Metric{Probe: "ppe-l1", Curve: "load 1T", X: 16}, Min: 7.5, Max: 9.3},
					Ratio{Num: Metric{Probe: "ppe-l1", Curve: "load 1T", X: 16},
						Den: Metric{Probe: "ppe-l1", Curve: "load 1T", X: 8}, Min: 0.95, Max: 1.05},
				},
			},
			{
				ID:       "fig3/load-proportional",
				Label:    "load 1T, 4/2/1 B",
				Paper:    "\"8 / 4 / 2\", proportional to size",
				Measured: "8.40 / 4.20 / 2.10",
				Match:    "✓",
				Short:    true,
				Checks: []Check{
					Ratio{Num: Metric{Probe: "ppe-l1", Curve: "load 1T", X: 4},
						Den: Metric{Probe: "ppe-l1", Curve: "load 1T", X: 2}, Min: 1.8, Max: 2.2},
					Ratio{Num: Metric{Probe: "ppe-l1", Curve: "load 1T", X: 2},
						Den: Metric{Probe: "ppe-l1", Curve: "load 1T", X: 1}, Min: 1.8, Max: 2.2},
				},
			},
			{
				ID:       "fig3/store-below-load",
				Label:    "store",
				Paper:    "below loads, proportional, 16 B + 2T steeper",
				Measured: "2.1→6.72 (1T), 7.27 at 16 B 2T",
				Match:    "✓",
				Checks: []Check{
					Ratio{Num: Metric{Probe: "ppe-l1", Curve: "load 1T", X: 16},
						Den: Metric{Probe: "ppe-l1", Curve: "store 1T", X: 16}, Min: 1.1},
					Ratio{Num: Metric{Probe: "ppe-l1", Curve: "store 2T", X: 16},
						Den: Metric{Probe: "ppe-l1", Curve: "store 1T", X: 16}, Min: 1},
				},
			},
			{
				ID:       "fig3/copy-16b-best",
				Label:    "copy 1T",
				Paper:    "half peak; 16 B clearly better than 8 B",
				Measured: "8.40 at 16 B vs 6.72 at 8 B",
				Match:    "✓",
				Checks: []Check{
					Ratio{Num: Metric{Probe: "ppe-l1", Curve: "copy 1T", X: 16},
						Den: Metric{Probe: "ppe-l1", Curve: "copy 1T", X: 8}, Min: 1.15},
				},
			},
			{
				ID:       "fig3/threads-equal",
				Label:    "threads",
				Paper:    "1T ≈ 2T in L1",
				Measured: "identical curves",
				Match:    "✓",
				Checks: []Check{
					Ratio{Num: Metric{Probe: "ppe-l1", Curve: "load 2T", X: 16},
						Den: Metric{Probe: "ppe-l1", Curve: "load 1T", X: 16}, Min: 0.9, Max: 1.1},
				},
			},
		},
	},
	{
		Title: "## Figure 4 — PPE to L2 cache",
		Claims: []Claim{
			{
				ID:       "fig4/load-below-l1",
				Label:    "load",
				Paper:    "much lower than L1; limited outstanding misses",
				Measured: "2.04 (1T) vs 8.40 L1",
				Match:    "✓",
				Short:    true,
				Checks: []Check{
					Ratio{Num: Metric{Probe: "ppe-l1", Curve: "load 1T", X: 16},
						Den: Metric{Probe: "ppe-l2", Curve: "load 1T", X: 16}, Min: 3},
				},
			},
			{
				ID:       "fig4/store-above-load",
				Label:    "store 1T",
				Paper:    "\"almost twice the bandwidth\" of loads",
				Measured: "4.2–6.72 vs 2.04",
				Match:    "✓ (2–3×)",
				Checks: []Check{
					Ratio{Num: Metric{Probe: "ppe-l2", Curve: "store 1T", X: 16},
						Den: Metric{Probe: "ppe-l2", Curve: "load 1T", X: 16}, Min: 1.8, Max: 3.6},
				},
			},
			{
				ID:       "fig4/smt-gain",
				Label:    "2 threads",
				Paper:    "\"performance increases significantly\"",
				Measured: "loads 2.04 → 3.27 (+60%)",
				Match:    "✓",
				Short:    true,
				Checks: []Check{
					Ratio{Num: Metric{Probe: "ppe-l2", Curve: "load 2T", X: 16},
						Den: Metric{Probe: "ppe-l2", Curve: "load 1T", X: 16}, Min: 1.3, Max: 2.0},
				},
			},
			{
				ID:       "fig4/size-dependence",
				Label:    "element size",
				Paper:    "same strong size dependence as L1",
				Measured: "1.18 → 2.04 across 1–16 B",
				Match:    "✓",
				Checks: []Check{
					Ratio{Num: Metric{Probe: "ppe-l2", Curve: "load 1T", X: 16},
						Den: Metric{Probe: "ppe-l2", Curve: "load 1T", X: 1}, Min: 1.4},
				},
			},
		},
	},
	{
		Title: "## Figure 6 — PPE to main memory",
		Claims: []Claim{
			{
				ID:       "fig6/read-equals-l2",
				Label:    "read",
				Paper:    "equal to L2 read (both miss-service limited)",
				Measured: "2.04/3.26 = L2's 2.04/3.27",
				Match:    "✓ (prefetcher mechanism)",
				Short:    true,
				Checks: []Check{
					Ratio{Num: Metric{Probe: "ppe-mem", Curve: "load 1T", X: 16},
						Den: Metric{Probe: "ppe-l2", Curve: "load 1T", X: 16}, Min: 0.9, Max: 1.1},
					Ratio{Num: Metric{Probe: "ppe-mem", Curve: "load 2T", X: 16},
						Den: Metric{Probe: "ppe-l2", Curve: "load 2T", X: 16}, Min: 0.9, Max: 1.1},
				},
			},
			{
				ID:       "fig6/write-below-l2",
				Label:    "write",
				Paper:    "much lower than L2 write; store queue saturates",
				Measured: "1.77 vs 6.72",
				Match:    "✓",
				Checks: []Check{
					Ratio{Num: Metric{Probe: "ppe-l2", Curve: "store 1T", X: 16},
						Den: Metric{Probe: "ppe-mem", Curve: "store 1T", X: 16}, Min: 2},
				},
			},
			{
				ID:       "fig6/overall-low",
				Label:    "overall",
				Paper:    "\"very low (under 6)\"",
				Measured: "max 4.29 (copy 2T)",
				Match:    "✓",
				Short:    true,
				Checks: []Check{
					Range{M: Metric{Probe: "ppe-mem", Curve: "*", Stat: CurveMax}, Max: 6},
				},
			},
		},
	},
	{
		Title:  "## Figure 8 — SPE ↔ main memory, DMA-elem (weak scaling)",
		Header: []string{"", "Paper", "Measured (16 KB elems)", "Match"},
		Claims: []Claim{
			{
				ID:       "fig8/one-spe-ten",
				Label:    "1 SPE, any op",
				Paper:    "≈10 (60% of 16.8 for GET/PUT, 30% of 33.6 for copy)",
				Measured: "GET 10.06, PUT 10.88, copy 10.34",
				Match:    "✓",
				Short:    true,
				Checks: []Check{
					Range{M: Metric{Probe: "spe-mem-get", Curve: "1 SPE", X: 16384}, Min: 8.5, Max: 11.5},
					Range{M: Metric{Probe: "spe-mem-put", Curve: "1 SPE", X: 16384}, Min: 8.5, Max: 12},
					Range{M: Metric{Probe: "spe-mem-copy", Curve: "1 SPE", X: 16384}, Min: 8.5, Max: 12},
				},
			},
			{
				ID:       "fig8/two-spes-beat-bank",
				Label:    "2 SPEs",
				Paper:    "≈20, exceeding one bank's 16.8",
				Measured: "GET 18.08, PUT 19.62, copy 17.68",
				Match:    "✓ (shape; both banks proven)",
				Short:    true,
				Checks: []Check{
					Range{M: Metric{Probe: "spe-mem-get", Curve: "2 SPE", X: 16384}, Min: 16.8, Max: 21.5},
				},
			},
			{
				ID:       "fig8/four-spes-increase",
				Label:    "4 SPEs",
				Paper:    "still increases; copy max ≈23",
				Measured: "GET 23.10, copy 21.55–23.3",
				Match:    "✓",
				Checks: []Check{
					Ratio{Num: Metric{Probe: "spe-mem-get", Curve: "4 SPE", X: 16384},
						Den: Metric{Probe: "spe-mem-get", Curve: "2 SPE", X: 16384}, Min: 1.1},
					Range{M: Metric{Probe: "spe-mem-get", Curve: "4 SPE", X: 16384}, Min: 20.5, Max: 25},
				},
			},
			{
				ID:       "fig8/eight-spes-flat",
				Label:    "8 SPEs",
				Paper:    "slight drop (EIB ring saturation)",
				Measured: "23.22 (flat vs 4 SPEs)",
				Match:    "~ (drop is within noise here; the saturation penalty shows up strongly in Figs 15/16 instead)",
				Checks: []Check{
					Ratio{Num: Metric{Probe: "spe-mem-get", Curve: "8 SPE", X: 16384},
						Den: Metric{Probe: "spe-mem-get", Curve: "4 SPE", X: 16384}, Min: 0.9, Max: 1.1},
				},
			},
			{
				ID:       "fig8/small-elems-slower",
				Label:    "small elems",
				Paper:    "128 B much slower, rising with size",
				Measured: "GET 7.75 → 10.06",
				Match:    "✓",
				Short:    true,
				Checks: []Check{
					Ratio{Num: Metric{Probe: "spe-mem-get", Curve: "1 SPE", X: 16384},
						Den: Metric{Probe: "spe-mem-get", Curve: "1 SPE", X: 128}, Min: 1.15},
					Ratio{Num: Metric{Probe: "spe-mem-get", Curve: "1 SPE", X: 2048},
						Den: Metric{Probe: "spe-mem-get", Curve: "1 SPE", X: 128}, Min: 1},
				},
			},
		},
	},
	{
		Title: "## §4.2.2 — SPU to Local Store",
		Claims: []Claim{
			{
				ID:       "ls/quadword-peak",
				Label:    "16 B",
				Paper:    "peak 33.6",
				Measured: "33.60",
				Match:    "✓",
				Short:    true,
				Checks: []Check{
					Range{M: Metric{Probe: "spe-ls", Curve: "load", X: 16}, Min: 33.0, Max: 33.7},
					Range{M: Metric{Probe: "spe-ls", Curve: "*", Stat: CurveMax}, Max: 33.6 * 1.005},
				},
			},
			{
				ID:       "ls/narrow-penalty",
				Label:    "narrower",
				Paper:    "slower (quadword-only ISA, extract/merge)",
				Measured: "0.70–8.40",
				Match:    "✓",
				Checks: []Check{
					Ratio{Num: Metric{Probe: "spe-ls", Curve: "load", X: 16},
						Den: Metric{Probe: "spe-ls", Curve: "load", X: 4}, Min: 3.5},
					Range{M: Metric{Probe: "spe-ls", Curve: "load", X: 1}, Min: 0.3, Max: 3},
				},
			},
		},
	},
	{
		Title: "## Figure 10 — delayed DMA synchronization (one SPE pair)",
		Claims: []Claim{
			{
				ID:       "fig10/delayed-near-peak",
				Label:    "sync after all, ≥1 KB",
				Paper:    "almost peak 33.6",
				Measured: "32.06–33.28",
				Match:    "✓",
				Short:    true,
				Checks: []Check{
					Range{M: Metric{Probe: "pair-sync", Curve: "all", X: 16384}, Min: 30.5, Max: 33.6},
					Range{M: Metric{Probe: "pair-sync", Curve: "*", Stat: CurveMax}, Max: 33.6 * 1.01},
				},
			},
			{
				ID:       "fig10/sync-every-loss",
				Label:    "sync every request",
				Paper:    "large loss, worst for 1–8 KB",
				Measured: "2 KB: 18.78 vs 32.95 (−43%)",
				Match:    "✓",
				Short:    true,
				Checks: []Check{
					Ratio{Num: Metric{Probe: "pair-sync", Curve: "all", X: 2048},
						Den: Metric{Probe: "pair-sync", Curve: "every 1", X: 2048}, Min: 1.4},
				},
			},
			{
				ID:       "fig10/small-elems-degrade",
				Label:    "< 1 KB elems",
				Paper:    "significant degradation regardless",
				Measured: "128 B: 8.40 even fully delayed",
				Match:    "✓",
				Checks: []Check{
					Ratio{Num: Metric{Probe: "pair-sync", Curve: "all", X: 16384},
						Den: Metric{Probe: "pair-sync", Curve: "all", X: 128}, Min: 3},
					// The curve's shape, not just its endpoints: at 2 KB the pair
					// has already reached peak (within 15% of 16 KB), while the
					// 128-byte point sits below half of it.
					Knee{Probe: "pair-sync", Curve: "all", KneeX: 2048, MaxFrac: 0.5, FlatTol: 0.15},
				},
			},
			{
				ID:       "fig10/single-pair-stable",
				Label:    "single pair variation",
				Paper:    "\"under 2\" across runs",
				Measured: "≤ 0.6 across layouts/partners",
				Match:    "✓",
				Checks: []Check{
					Range{M: Metric{Probe: "pair-sync", Curve: "all", X: 16384, Stat: Spread}, Max: 2},
					Ratio{Num: Metric{Probe: "pair-distance", Curve: "16KB elements", Stat: CurveMax},
						Den: Metric{Probe: "pair-distance", Curve: "16KB elements", Stat: CurveMin}, Min: 0.95, Max: 1.06},
				},
			},
		},
	},
	{
		Title: "## Figures 12, 13 — couples of SPEs",
		Claims: []Claim{
			{
				ID:       "fig12/one-couple-peak",
				Label:    "2 SPEs (1 couple)",
				Paper:    "≈peak 33.6, elem and list",
				Measured: "33.28 / 33.27",
				Match:    "✓",
				Short:    true,
				Checks: []Check{
					Range{M: Metric{Probe: "couples-elem", Curve: "2 SPEs", X: 16384}, Min: 32, Max: 33.6},
					Range{M: Metric{Probe: "couples-list", Curve: "2 SPEs", X: 16384}, Min: 32, Max: 33.6},
				},
			},
			{
				ID:       "fig12/two-couples-peak",
				Label:    "4 SPEs (2 couples)",
				Paper:    "near peak 67.2",
				Measured: "66.18 / 65.99",
				Match:    "✓",
				Checks: []Check{
					Range{M: Metric{Probe: "couples-elem", Curve: "4 SPEs", X: 16384}, Min: 60, Max: 67.2},
				},
			},
			{
				ID:       "fig12/four-couples-seventy-pct",
				Label:    "8 SPEs elem avg",
				Paper:    "≈95 (70% of 134.4)",
				Measured: "99.35 (74%)",
				Match:    "✓",
				Short:    true,
				Checks: []Check{
					Range{M: Metric{Probe: "couples-elem", Curve: "8 SPEs", X: 16384}, Min: 80, Max: 120},
					Range{M: Metric{Probe: "couples-elem", Curve: "8 SPEs", X: 16384, Stat: MaxRun}, Max: 134.4},
				},
			},
			{
				ID:       "fig12/list-tracks-elem",
				Label:    "8 SPEs list avg",
				Paper:    "≈81 (60%)",
				Measured: "99.29",
				Match:    "✗ (elem≈list here; the paper's own text is self-contradictory on which is slower — see DESIGN.md)",
				Checks: []Check{
					Ratio{Num: Metric{Probe: "couples-list", Curve: "8 SPEs", X: 16384},
						Den: Metric{Probe: "couples-elem", Curve: "8 SPEs", X: 16384}, Min: 0.85, Max: 1.15},
				},
			},
			{
				ID:       "fig12/list-size-independent",
				Label:    "list vs size",
				Paper:    "constant, independent of element size",
				Measured: "33.06 at 128 B vs 33.27 at 16 KB",
				Match:    "✓",
				Short:    true,
				Checks: []Check{
					Ratio{Num: Metric{Probe: "couples-list", Curve: "2 SPEs", X: 128},
						Den: Metric{Probe: "couples-list", Curve: "2 SPEs", X: 16384}, Min: 0.95, Max: 1.05},
				},
			},
			{
				ID:       "fig12/elem-small-degrades",
				Label:    "elem < 1 KB",
				Paper:    "significant degradation",
				Measured: "8.40 at 128 B",
				Match:    "✓",
				Checks: []Check{
					Ratio{Num: Metric{Probe: "couples-elem", Curve: "2 SPEs", X: 16384},
						Den: Metric{Probe: "couples-elem", Curve: "2 SPEs", X: 128}, Min: 3},
				},
			},
			{
				ID:       "fig13/placement-spread",
				Label:    "Fig 13 spread",
				Paper:    "wide min/max from physical placement",
				Measured: "min 46.2, max 106.6, med 105.2",
				Match:    "✓ (direction; our spread is wider than the paper's ~20–40)",
				Checks: []Check{
					Range{M: Metric{Probe: "couples-spread", Curve: "8 SPEs", X: 16384, Stat: Spread}, Min: 10},
				},
			},
		},
	},
	{
		Title: "## Figures 15, 16 — cycle of SPEs (all active)",
		Claims: []Claim{
			{
				ID:       "fig15/two-ring-peak",
				Label:    "2 SPEs",
				Paper:    "peak 33.6",
				Measured: "33.57",
				Match:    "✓",
				Short:    true,
				Checks: []Check{
					Range{M: Metric{Probe: "cycle-elem", Curve: "2 SPEs", X: 16384}, Min: 32, Max: 33.7},
				},
			},
			{
				ID:       "fig15/four-saturating",
				Label:    "4 SPEs",
				Paper:    "≈50 of 67.2 (EIB saturated, 8 active DMAs)",
				Measured: "51.47 avg",
				Match:    "✓",
				Checks: []Check{
					Ratio{Num: Metric{Probe: "cycle-elem", Curve: "4 SPEs", X: 16384},
						Den: Metric{Probe: "couples-elem", Curve: "4 SPEs", X: 16384}, Min: 0.6, Max: 0.95},
				},
			},
			{
				ID:       "fig15/eight-below-couples",
				Label:    "8 SPEs",
				Paper:    "≈70 of 134.4; below couples with half the DMAs",
				Measured: "78.64 avg (vs 99.35 couples)",
				Match:    "✓",
				Short:    true,
				Checks: []Check{
					Ratio{Num: Metric{Probe: "couples-elem", Curve: "8 SPEs", X: 16384},
						Den: Metric{Probe: "cycle-elem", Curve: "8 SPEs", X: 16384}, Min: 1.1},
				},
			},
			{
				ID:       "fig15/saturation-counterproductive",
				Label:    "saturation lesson",
				Paper:    "\"saturating the EIB is counterproductive\"",
				Measured: "cycle-8 per-SPE 9.8 vs couples-8 12.4",
				Match:    "✓",
				Checks: []Check{
					Ratio{Num: Metric{Probe: "cycle-elem", Curve: "8 SPEs", X: 16384},
						Den: Metric{Probe: "couples-elem", Curve: "8 SPEs", X: 16384}, Min: 0.5, Max: 0.92},
				},
			},
			{
				ID:       "fig16/placement-spread",
				Label:    "Fig 16 spread",
				Paper:    "≈20 (elem), ≈10 (list), smaller than couples",
				Measured: "49 / 48 (median 77.7/77.8)",
				Match:    "~ (direction right vs couples min; magnitudes larger — see DESIGN.md)",
				Checks: []Check{
					Range{M: Metric{Probe: "cycle-spread", Curve: "8 SPEs", X: 16384, Stat: Spread}, Min: 5},
					Ratio{Num: Metric{Probe: "cycle-list", Curve: "8 SPEs", X: 16384},
						Den: Metric{Probe: "cycle-elem", Curve: "8 SPEs", X: 16384}, Min: 0.85, Max: 1.15},
				},
			},
		},
		Footer: `The *mechanism* behind the Figure 13/16 spread is rendered by
` + "`cellbench -experiment layout-timeline`" + ` (section ` + "`layout-timeline`" + ` in
` + "`results/full_sweep.txt`" + `): it reruns the best and the worst of the
sampled layouts with the metrics sampler attached. In the checked-in
run the lucky layout (seed 8) holds a flat ~107 GB/s at ~100
wait-cycles per transfer for the whole run, while the unlucky one
(seed 2) is pinned at ~58 GB/s with ~500 wait-cycles per transfer —
sustained ring-segment conflicts, not transient warm-up. The same
conflicts are visible span-by-span in a Perfetto trace
(` + "`cellsim -trace`" + `, see README "Observability").`,
	},
	{
		Title: "## §1/§5 — streaming programming model",
		Claims: []Claim{
			{
				ID:       "stream/two-beat-one",
				Label:    "2 streams × 4 SPEs vs 1 × 8",
				Paper:    "\"can be more efficient\"",
				Measured: "8.35 vs 4.91 GB/s (+70%)",
				Match:    "✓",
				Short:    true,
				Checks: []Check{
					Ratio{Num: Metric{Probe: "streaming", Curve: "aggregate", X: 2},
						Den: Metric{Probe: "streaming", Curve: "aggregate", X: 1}, Min: 1.2},
				},
			},
			{
				ID:       "stream/more-readers",
				Label:    "more parallel readers",
				Paper:    "beneficial",
				Measured: "4 × 2 SPEs: 9.94",
				Match:    "✓",
				Checks: []Check{
					Ratio{Num: Metric{Probe: "streaming", Curve: "aggregate", X: 4},
						Den: Metric{Probe: "streaming", Curve: "aggregate", X: 2}, Min: 1},
				},
			},
		},
	},
	{
		Title: "## Workload library (README \"Scenarios\")",
		Claims: []Claim{
			{
				ID:       "wl/gups-element-scaling",
				Label:    "GUPS update rate vs element size",
				Paper:    "random updates are latency-bound: GB/s proportional to element size (Chen & Bader)",
				Measured: "1.36 / 2.73 / 5.38 / 10.79 / 21.50 at 8–128 B",
				Match:    "✓ (each doubling ≈ 2×)",
				Short:    true,
				Checks: []Check{
					Ratio{Num: Metric{Probe: "gups-chunk", Curve: "8 SPE update", X: 16},
						Den: Metric{Probe: "gups-chunk", Curve: "8 SPE update", X: 8}, Min: 1.8, Max: 2.2},
					Ratio{Num: Metric{Probe: "gups-chunk", Curve: "8 SPE update", X: 128},
						Den: Metric{Probe: "gups-chunk", Curve: "8 SPE update", X: 64}, Min: 1.8, Max: 2.2},
				},
			},
			{
				ID:       "wl/gups-chunk-knee",
				Label:    "GUPS small-element knee",
				Paper:    "sub-128 B gathers pay full DMA issue cost per element",
				Measured: "64 B at 50% of the 128 B rate; 8 B at 6%",
				Match:    "✓",
				Checks: []Check{
					Knee{Probe: "gups-chunk", Curve: "8 SPE update", KneeX: 128, MaxFrac: 0.55},
					Range{M: Metric{Probe: "gups-chunk", Curve: "8 SPE update", X: 64}, Min: 9.5, Max: 12},
				},
			},
			{
				ID:       "wl/gups-bank-interleave",
				Label:    "GUPS needs both XDR banks",
				Paper:    "random access across both banks; one bank throttles the table",
				Measured: "10.92 interleaved vs 7.61 single bank (−30%)",
				Match:    "✓",
				Short:    true,
				Checks: []Check{
					Ratio{Num: Metric{Probe: "gups-bank", Curve: "interleaved", X: 64},
						Den: Metric{Probe: "gups-bank", Curve: "single bank", X: 64}, Min: 1.25},
				},
			},
			{
				ID:       "wl/gups-bank-ceiling",
				Label:    "single-bank GUPS ceiling",
				Paper:    "one bank caps at 16.8, and random 64 B updates sit far below even that",
				Measured: "7.65 max, under the 16.8 bank rate",
				Match:    "✓",
				Checks: []Check{
					Range{M: Metric{Probe: "gups-bank", Curve: "single bank", X: 64, Stat: MaxRun}, Max: 16.8},
					Range{M: Metric{Probe: "gups-bank", Curve: "single bank", X: 64}, Min: 6, Max: 9},
				},
			},
			{
				ID:       "wl/qcd-sustained",
				Label:    "QCD sweep bandwidth",
				Paper:    "spinor streaming + halo sustains near the Fig 8 memory rate (Belletti et al.)",
				Measured: "18.83 at 4 KB spinors (8 SPEs)",
				Match:    "✓",
				Short:    true,
				Checks: []Check{
					Range{M: Metric{Probe: "qcd-chunk", Curve: "8 SPE halo", X: 4096}, Min: 17, Max: 21},
				},
			},
			{
				ID:       "wl/qcd-spinor-size",
				Label:    "QCD vs spinor size",
				Paper:    "flat at stream sizes; 16 KB slabs amortize the halo fence",
				Measured: "18.87 / 18.78 / 18.83 / 24.63 at 256 B–16 KB",
				Match:    "✓",
				Checks: []Check{
					Ratio{Num: Metric{Probe: "qcd-chunk", Curve: "8 SPE halo", X: 256},
						Den: Metric{Probe: "qcd-chunk", Curve: "8 SPE halo", X: 4096}, Min: 0.9, Max: 1.1},
					Ratio{Num: Metric{Probe: "qcd-chunk", Curve: "8 SPE halo", X: 16384},
						Den: Metric{Probe: "qcd-chunk", Curve: "8 SPE halo", X: 256}, Min: 1.15},
				},
			},
			{
				ID:       "wl/qcd-ring-locality",
				Label:    "halo-ring placement locality",
				Paper:    "ring traffic is locality-ordered across layouts: colliding placements halve it",
				Measured: "best layout 107.1, worst 45.7 (pure halo ring)",
				Match:    "✓",
				Short:    true,
				Checks: []Check{
					Ratio{Num: Metric{Probe: "qcd-ring", Curve: "halo ring", X: 1024, Stat: MaxRun},
						Den: Metric{Probe: "qcd-ring", Curve: "halo ring", X: 1024, Stat: MinRun}, Min: 1.8},
					Range{M: Metric{Probe: "qcd-ring", Curve: "halo ring", X: 1024, Stat: MaxRun}, Max: 134.4},
				},
			},
			{
				ID:       "wl/qcd-place-damped",
				Label:    "full QCD damps placement",
				Paper:    "memory streams dominate the halo, so placement costs % not ×",
				Measured: "18.05–20.38 across 8 placements (spread 2.3)",
				Match:    "✓",
				Checks: []Check{
					Range{M: Metric{Probe: "qcd-place", Curve: "8 SPE halo", X: 4096, Stat: Spread},
						Min: 0.3, Max: 5},
				},
			},
			{
				ID:       "wl/md-sustained",
				Label:    "MD force loop bandwidth",
				Paper:    "gather/compute/scatter sustains the Fig 8 memory rate",
				Measured: "20.17 at 512 B pairs (8 SPEs)",
				Match:    "✓",
				Checks: []Check{
					Range{M: Metric{Probe: "md-chunk", Curve: "8 SPE pairs", X: 512}, Min: 18.5, Max: 21.5},
				},
			},
			{
				ID:       "wl/md-element-insensitive",
				Label:    "MD vs pair-record size",
				Paper:    "deep async gathers hide per-element cost down to 128 B",
				Measured: "19.82 at 128 B vs 21.12 at 4 KB (−6%)",
				Match:    "✓",
				Checks: []Check{
					Ratio{Num: Metric{Probe: "md-chunk", Curve: "8 SPE pairs", X: 128},
						Den: Metric{Probe: "md-chunk", Curve: "8 SPE pairs", X: 4096}, Min: 0.85, Max: 1.02},
				},
			},
			{
				ID:       "wl/stream-triad-band",
				Label:    "STREAM triad",
				Paper:    "21.8 on real hardware (McCalpin kernel, cellbench `stream`)",
				Measured: "21.99 (scenario preset, 8 SPEs, 16 KB blocks)",
				Match:    "✓",
				Short:    true,
				Checks: []Check{
					Range{M: Metric{Probe: "stream-ops", Curve: "triad", X: 16384}, Min: 20.5, Max: 23.5},
				},
			},
			{
				ID:       "wl/stream-triad-vs-copy",
				Label:    "triad vs copy ratio",
				Paper:    "three-array kernels slightly above two-array (more overlap per fence)",
				Measured: "21.99 / 21.39 = 1.03",
				Match:    "✓",
				Checks: []Check{
					Ratio{Num: Metric{Probe: "stream-ops", Curve: "triad", X: 16384},
						Den: Metric{Probe: "stream-ops", Curve: "copy", X: 16384}, Min: 0.95, Max: 1.15},
				},
			},
			{
				ID:       "wl/stream-op-pairs",
				Label:    "scale=copy, add=triad",
				Paper:    "compute op is free: bandwidth depends only on the array count",
				Measured: "identical phase programs, bit-identical rates",
				Match:    "✓",
				Checks: []Check{
					Ratio{Num: Metric{Probe: "stream-ops", Curve: "scale", X: 16384},
						Den: Metric{Probe: "stream-ops", Curve: "copy", X: 16384}, Min: 0.999, Max: 1.001},
					Ratio{Num: Metric{Probe: "stream-ops", Curve: "add", X: 16384},
						Den: Metric{Probe: "stream-ops", Curve: "triad", X: 16384}, Min: 0.999, Max: 1.001},
				},
			},
			{
				ID:       "wl/stream-block-insensitive",
				Label:    "triad vs block size",
				Paper:    "double-buffered streams saturate from 512 B blocks on",
				Measured: "21.52 / 21.49 / 21.99 at 512 B / 2 KB / 16 KB",
				Match:    "✓",
				Checks: []Check{
					Ratio{Num: Metric{Probe: "stream-chunk", Curve: "triad", X: 512},
						Den: Metric{Probe: "stream-chunk", Curve: "triad", X: 16384}, Min: 0.9, Max: 1.05},
					Ratio{Num: Metric{Probe: "stream-chunk", Curve: "triad", X: 2048},
						Den: Metric{Probe: "stream-chunk", Curve: "triad", X: 16384}, Min: 0.9, Max: 1.05},
				},
			},
		},
		Footer: `The workload presets (` + "`gups`" + `, ` + "`qcd`" + `, ` + "`md`" + `, ` + "`stream`" + `) are data-driven
phase programs on the pattern interpreter — see README "Scenarios" for
the lineage (Chen & Bader's GUPS characterisation, Belletti et al.'s
lattice QCD, McCalpin's STREAM) and DESIGN.md for the pattern layer.
The provenance run behind the preset rows is the ` + "`workloads`" + ` section of
` + "`results/full_sweep.txt`" + ` (` + "`cellbench -experiment workloads`" + `); the
halo-ring and bank-split rows come from the conformance probes
themselves (explicit phase program / config variant, quick volumes).`,
	},
	{
		Title: "## Extensions (the paper's §5 future work)",
		Footer: "`cellbench -experiment kernels` — streamed compute kernels, GFLOPS\n" +
			"(1→8 SPEs): dot 2.3→5.7 (bandwidth-bound, saturates exactly where\n" +
			"Figure 8 saturates), matvec 4.7→10.7, matmul 16.8→132.5 (compute-bound,\n" +
			"linear scaling at ~16.8 GFLOPS per SPE, the SP-SIMD peak).\n" +
			"\n" +
			"`cellbench -experiment dma-latency` — synchronous round trip: 115 cycles\n" +
			"(128 B LS→LS) to 3051 cycles (16 KB from memory); the 390-cycle 128 B\n" +
			"memory latency is the RTT term in the window model that caps one SPE at\n" +
			"~10 GB/s.\n" +
			"\n" +
			"`cellbench -experiment stream` — McCalpin STREAM on SPEs (GB/s, 1→8):\n" +
			"copy 9.6→20.3, scale 9.5→21.0, add 10.1→21.7, triad 10.1→21.8 — all four\n" +
			"kernels track the Figure 8 memory ceiling, saturating past 4 SPEs.\n" +
			"\n" +
			"`cellbench -experiment cross-chip` — the §5 dual-chip warning: an SPE\n" +
			"pair reaches 33.3 GB/s on-chip but only 11.9 GB/s when the partner sits\n" +
			"on the second chip (GET and PUT each crossing a 7 GB/s IOIF direction);\n" +
			"at 128-byte elements both are equally setup-bound at 8.4.\n" +
			"\n" +
			"`examples/taskfarm` — the CellSs-style task runtime: a 16-stage dependent\n" +
			"chain over 64 KB blocks on 4 workers runs 1.53× faster under the\n" +
			"LS-forwarding policy than through memory, with results byte-exact and the\n" +
			"task tally kept by getllar/putllc atomics.\n" +
			"\n" +
			"`examples/stencil` — 1D Jacobi over 32 Ki cells on 8 SPEs with LS-to-LS\n" +
			"halo exchange: 64 iterations in 146 µs of simulated time, bit-for-bit\n" +
			"equal to the host float32 reference.",
	},
	{
		Title:  "## Ablations (`go test ./internal/conformance -run 'TestClaims/abl/'`)",
		Header: []string{"Rule from §5", "off", "on"},
		Claims: []Claim{
			{
				ID:       "abl/delay-sync",
				Label:    "delay DMA synchronization",
				Paper:    "18.9",
				Measured: "32.8 GB/s",
				Checks: []Check{
					Ratio{Num: Metric{Probe: "pair-sync", Curve: "all", X: 2048},
						Den: Metric{Probe: "pair-sync", Curve: "every 1", X: 2048}, Min: 1.3},
				},
			},
			{
				ID:       "abl/lists-small-chunks",
				Label:    "DMA lists for small chunks",
				Paper:    "8.4 (elem 128 B)",
				Measured: "33.0 GB/s (list 128 B)",
				Short:    true,
				Checks: []Check{
					Ratio{Num: Metric{Probe: "couples-list", Curve: "2 SPEs", X: 128},
						Den: Metric{Probe: "couples-elem", Curve: "2 SPEs", X: 128}, Min: 3},
					Ratio{Num: Metric{Probe: "spe-mem-get-list", Curve: "1 SPE", X: 128},
						Den: Metric{Probe: "spe-mem-get", Curve: "1 SPE", X: 128}, Min: 1.1},
					Ratio{Num: Metric{Probe: "spe-mem-get-list", Curve: "1 SPE", X: 128},
						Den: Metric{Probe: "spe-mem-get-list", Curve: "1 SPE", X: 16384}, Min: 0.9, Max: 1.1},
				},
			},
			{
				ID:       "abl/bank-interleave",
				Label:    "spread pages over both banks",
				Paper:    "16.4 (one bank)",
				Measured: "23.2 GB/s",
				Short:    true,
				Checks: []Check{
					Ratio{Num: Metric{Probe: "mem-bank", Curve: "interleaved", X: 16384},
						Den: Metric{Probe: "mem-bank", Curve: "single bank", X: 16384}, Min: 1.2},
					Range{M: Metric{Probe: "mem-bank", Curve: "single bank", X: 16384, Stat: MaxRun}, Max: 16.8 * 1.02},
				},
			},
			{
				ID:       "abl/mfc-window",
				Label:    "MFC window is the 1-SPE ceiling",
				Paper:    "10.3 (window 16)",
				Measured: "16.7 GB/s (window 64)",
				Checks: []Check{
					Ratio{Num: Metric{Probe: "mfc-window", Curve: "window 64", X: 16384},
						Den: Metric{Probe: "mfc-window", Curve: "window 16", X: 16384}, Min: 1.3},
				},
			},
			{
				ID:       "abl/l2-prefetcher",
				Label:    "L2 prefetcher ⇒ mem read = L2 read",
				Paper:    "0.58",
				Measured: "2.04 GB/s",
				Checks: []Check{
					Ratio{Num: Metric{Probe: "ppe-prefetch", Curve: "prefetch on", X: 8},
						Den: Metric{Probe: "ppe-prefetch", Curve: "prefetch off", X: 8}, Min: 2},
				},
			},
			{
				ID:       "abl/ring-arbitration",
				Label:    "imperfect EIB arbitration (model)",
				Paper:    "102.4 (ideal)",
				Measured: "95.0 GB/s (gap 64)",
				Checks: []Check{
					Ratio{Num: Metric{Probe: "eib-arb", Curve: "ideal arbiter", X: 16384},
						Den: Metric{Probe: "eib-arb", Curve: "real arbiter", X: 16384}, Min: 1.05},
				},
			},
		},
	},
}
