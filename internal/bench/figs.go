package bench

import (
	"fmt"
	"io"

	"paralagg"
	"paralagg/internal/graph"
	"paralagg/internal/metrics"
	"paralagg/internal/mpi"
	"paralagg/internal/queries"
	"paralagg/internal/relation"
	"paralagg/internal/tuple"
)

// phaseOrder is the column order used by the figure tables.
var phaseOrder = []string{"planning", "intra-bucket", "local-join", "all-to-all", "local-agg", "other"}

func ranksGrid(opts Options, fast, full []int) []int {
	if opts.Full {
		return full
	}
	return fast
}

func sourceCount(opts Options, fast, full int) int {
	if opts.Full {
		return full
	}
	return fast
}

// fig2 reproduces Figure 2: strong-scaling SSSP on the Twitter stand-in,
// Baseline (no balancing, static join order) vs Optimized (8 sub-buckets,
// dynamic join planning), broken down by phase.
func fig2(w io.Writer, opts Options) error {
	g, err := graph.Load("twitter-sim")
	if err != nil {
		return err
	}
	sources := g.Sources(sourceCount(opts, 5, 10), 1)
	grid := ranksGrid(opts, []int{16, 32, 64, 128}, []int{16, 32, 64, 128, 256})

	fmt.Fprintf(w, "SSSP on %s, %d sources. B = baseline (1 sub-bucket, static join order),\n", g.Name, len(sources))
	fmt.Fprintf(w, "O = optimized (8 sub-buckets, dynamic join planning). Simulated seconds.\n\n")
	fmt.Fprintf(w, "%6s %4s %9s", "ranks", "cfg", "total")
	for _, p := range phaseOrder {
		fmt.Fprintf(w, " %12s", p)
	}
	fmt.Fprintln(w)

	var baseTotals, optTotals []float64
	for _, ranks := range grid {
		for _, cfg := range []struct {
			label string
			conf  paralagg.Config
		}{
			{"B", paralagg.Config{Ranks: ranks, Subs: 1, Plan: paralagg.StaticRight}},
			{"O", paralagg.Config{Ranks: ranks, Subs: 8, Plan: paralagg.Dynamic}},
		} {
			res, err := queries.RunSSSP(g, sources, cfg.conf)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%6d %4s %9.3f", ranks, cfg.label, res.SimSeconds)
			for _, p := range phaseOrder {
				fmt.Fprintf(w, " %12.4f", res.PhaseSeconds[p])
			}
			fmt.Fprintln(w)
			if cfg.label == "B" {
				baseTotals = append(baseTotals, res.SimSeconds)
			} else {
				optTotals = append(optTotals, res.SimSeconds)
			}
		}
	}
	fmt.Fprintf(w, "\nspeedup O vs B per rank count:")
	for i := range baseTotals {
		fmt.Fprintf(w, " %.2fx", baseTotals[i]/optTotals[i])
	}
	fmt.Fprintln(w)
	return nil
}

// fig3 reproduces Figure 3: the cumulative distribution of edge tuples per
// rank with one vs eight sub-buckets, showing sub-bucketing flattening the
// skew-induced imbalance.
func fig3(w io.Writer, opts Options) error {
	g, err := graph.Load("twitter-sim")
	if err != nil {
		return err
	}
	ranks := 64
	if opts.Full {
		ranks = 256
	}
	fmt.Fprintf(w, "Edge-tuple distribution across %d ranks on %s (paper: 4096 ranks).\n", ranks, g.Name)
	fmt.Fprintf(w, "%-12s %10s %10s %10s %10s %10s %8s\n",
		"sub-buckets", "min", "p25", "p50", "p75", "max", "max/min")
	for _, subs := range []int{1, 8} {
		counts, err := edgeDistribution(g, ranks, subs)
		if err != nil {
			return err
		}
		cdf := metrics.CDF(counts)
		q := func(f float64) int { return cdf[int(f*float64(len(cdf)-1))] }
		fmt.Fprintf(w, "%-12d %10d %10d %10d %10d %10d %8.1f\n",
			subs, cdf[0], q(0.25), q(0.5), q(0.75), cdf[len(cdf)-1],
			metrics.ImbalanceRatio(counts))
	}
	return nil
}

// edgeDistribution loads the graph's edge relation on a world and returns
// the per-rank tuple counts.
func edgeDistribution(g *graph.Graph, ranks, subs int) ([]int, error) {
	world := mpi.NewWorld(ranks)
	mc := metrics.NewCollector(ranks)
	var counts []int
	err := world.Run(func(c *mpi.Comm) error {
		edge, err := relation.New(relation.Schema{Name: "edge", Arity: 3, Indep: 3, Key: 1},
			c, mc, relation.Config{Subs: subs})
		if err != nil {
			return err
		}
		edge.LoadShare(len(g.Edges), func(i int, emit func(tuple.Tuple)) {
			emit(tuple.Tuple{g.Edges[i].U, g.Edges[i].V, g.Edges[i].W})
		})
		per := edge.PerRankCounts()
		if c.Rank() == 0 {
			counts = per
		}
		return nil
	})
	return counts, err
}

// fig4 reproduces Figure 4: CC local-join critical time with one vs eight
// sub-buckets across rank counts; imbalance halts the 1-sub-bucket
// configuration's scaling while the balanced one keeps improving.
func fig4(w io.Writer, opts Options) error {
	g, err := graph.Load("twitter-sim")
	if err != nil {
		return err
	}
	grid := ranksGrid(opts, []int{16, 32, 64, 128, 256}, []int{16, 32, 64, 128, 256})
	fmt.Fprintf(w, "CC on %s: local-join simulated seconds per rank count.\n\n", g.Name)
	fmt.Fprintf(w, "%6s %14s %14s %14s %14s\n", "ranks", "join(1 sub)", "join(8 subs)", "total(1 sub)", "total(8 subs)")
	for _, ranks := range grid {
		row := make(map[int][2]float64)
		for _, subs := range []int{1, 8} {
			res, err := queries.RunCC(g, paralagg.Config{Ranks: ranks, Subs: subs, Plan: paralagg.Dynamic})
			if err != nil {
				return err
			}
			row[subs] = [2]float64{res.PhaseSeconds["local-join"], res.SimSeconds}
		}
		fmt.Fprintf(w, "%6d %14.4f %14.4f %14.4f %14.4f\n",
			ranks, row[1][0], row[8][0], row[1][1], row[8][1])
	}
	return nil
}

// fig5 reproduces Figure 5: SSSP strong scaling on the Twitter stand-in
// with simultaneous sources (paper: 30 sources, 256→16,384 ranks).
func fig5(w io.Writer, opts Options) error {
	return scalingFigure(w, opts, "SSSP", func(g *graph.Graph, sources []uint64, cfg paralagg.Config) (*paralagg.Result, error) {
		return queries.RunSSSP(g, sources, cfg)
	})
}

// fig6 reproduces Figure 6: CC strong scaling. The paper's "other" phase
// (sub-bucket traffic) eats the gains at the top of its range; here it is
// 0, because an aggregated record travels straight to its key's owner.
func fig6(w io.Writer, opts Options) error {
	return scalingFigure(w, opts, "CC", func(g *graph.Graph, _ []uint64, cfg paralagg.Config) (*paralagg.Result, error) {
		return queries.RunCC(g, cfg)
	})
}

func scalingFigure(w io.Writer, opts Options, label string,
	run func(*graph.Graph, []uint64, paralagg.Config) (*paralagg.Result, error)) error {
	g, err := graph.Load("twitter-sim")
	if err != nil {
		return err
	}
	sources := g.Sources(sourceCount(opts, 10, 30), 2)
	grid := ranksGrid(opts, []int{8, 16, 32, 64, 128}, []int{8, 16, 32, 64, 128, 256})
	fmt.Fprintf(w, "%s on %s (optimized: 8 sub-buckets, dynamic planning).\n\n", label, g.Name)
	fmt.Fprintf(w, "%6s %10s %9s %14s %12s %12s\n",
		"ranks", "total", "vs-first", "local-join", "comm", "other")
	var first float64
	for i, ranks := range grid {
		res, err := run(g, sources, paralagg.Config{Ranks: ranks, Subs: 8, Plan: paralagg.Dynamic})
		if err != nil {
			return err
		}
		if i == 0 {
			first = res.SimSeconds
		}
		comm := res.PhaseSeconds["intra-bucket"] + res.PhaseSeconds["all-to-all"]
		fmt.Fprintf(w, "%6d %10.4f %8.1f%% %14.4f %12.4f %12.4f\n",
			ranks, res.SimSeconds, 100*(1-res.SimSeconds/first),
			res.PhaseSeconds["local-join"], comm, res.PhaseSeconds["other"])
	}
	fmt.Fprintf(w, "\n(vs-first = runtime reduction relative to the smallest rank count;\n")
	fmt.Fprintf(w, " the paper reports 96%% from 256 to 16,384 ranks)\n")
	return nil
}

// fig7 reproduces Figure 7: the per-iteration phase profile of SSSP — most
// time in the first iterations, a long tail dominated by local join.
func fig7(w io.Writer, opts Options) error {
	g, err := graph.Load("twitter-sim")
	if err != nil {
		return err
	}
	ranks := 32
	if opts.Full {
		ranks = 128
	}
	sources := g.Sources(sourceCount(opts, 10, 30), 2)
	res, err := queries.RunSSSP(g, sources, paralagg.Config{Ranks: ranks, Subs: 8, Plan: paralagg.Dynamic})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "SSSP on %s at %d ranks (paper: 1,024), per-iteration simulated ms.\n\n", g.Name, ranks)
	fmt.Fprintf(w, "%5s %10s", "iter", "total")
	for _, p := range phaseOrder {
		fmt.Fprintf(w, " %12s", p)
	}
	fmt.Fprintln(w)
	for i, row := range res.IterPhaseSeconds {
		total := 0.0
		for _, v := range row {
			total += v
		}
		fmt.Fprintf(w, "%5d %10.3f", i, total*1e3)
		for _, p := range phaseOrder {
			fmt.Fprintf(w, " %12.3f", row[p]*1e3)
		}
		fmt.Fprintln(w)
	}
	return nil
}

func init() {
	register(Experiment{Name: "fig2", Title: "Fig. 2 — SSSP baseline vs optimized, phase breakdown (Theta/Twitter)", Run: fig2})
	register(Experiment{Name: "fig3", Title: "Fig. 3 — tuple distribution CDF, 1 vs 8 sub-buckets", Run: fig3})
	register(Experiment{Name: "fig4", Title: "Fig. 4 — CC local-join time, 1 vs 8 sub-buckets", Run: fig4})
	register(Experiment{Name: "fig5", Title: "Fig. 5 — SSSP strong scaling (Twitter)", Run: fig5})
	register(Experiment{Name: "fig6", Title: "Fig. 6 — CC strong scaling (Twitter)", Run: fig6})
	register(Experiment{Name: "fig7", Title: "Fig. 7 — SSSP per-iteration profile", Run: fig7})
}
