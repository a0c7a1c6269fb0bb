package mpi

import "sync/atomic"

// Stats meters every collective in a world. Counters are per calling rank
// so that imbalance is visible; Totals sums them. The meter keeps each
// collective kind apart because the cost model charges latency per
// collective and bandwidth per byte, and it counts wire bytes per peer
// because a schedule reshapes exactly those.
//
// Every counter is an atomic in its rank's own row: metering a message takes
// no lock and touches no other rank's cache lines, and a reader sums the rows
// without stopping the writers (each counter read at some instant, not all
// at one — all a rank metering its own phase ever needed).
type Stats struct {
	ranks []*rankMeter
	// net, when set (distributed worlds), reads the transport's robustness
	// counters. It is fixed before the world runs.
	net func() NetStats
}

// collKind indexes the per-kind collective counters.
type collKind int

const (
	collBarrier collKind = iota
	collAllreduce
	collAllreduceVec
	collAllgather
	collAlltoallv
	numCollKinds
)

// collNames are the RankStats.Collectives keys.
var collNames = [numCollKinds]string{
	"barrier", "allreduce", "allreducevec", "allgather", "alltoallv",
}

// rankMeter is one rank's row of live counters. Rows are separate
// allocations so two ranks' hot counters do not share a cache line.
type rankMeter struct {
	coll               [numCollKinds]struct{ calls, bytes atomic.Int64 }
	peerSent, peerRecv []atomic.Int64
}

// RankStats is one rank's communication tally.
type RankStats struct {
	Collectives map[string]CollectiveStats
	// PeerBytesSent/PeerBytesRecv are this rank's per-peer wire bytes,
	// indexed by peer rank — every hop a collective schedule routed through
	// this rank. They feed /metrics and are how a test or benchmark sees
	// traffic concentration (e.g. bytes through the flat star's root,
	// TestConvergenceAllreduceRootBytes). The self entry stays zero: local
	// hand-offs never touch a wire.
	PeerBytesSent []int64
	PeerBytesRecv []int64
}

// CollectiveStats counts one collective kind's calls and payload bytes for a
// rank.
type CollectiveStats struct {
	Calls int
	Bytes int
}

func newStats(size int) *Stats {
	s := &Stats{ranks: make([]*rankMeter, size)}
	for i := range s.ranks {
		s.ranks[i] = &rankMeter{
			peerSent: make([]atomic.Int64, size),
			peerRecv: make([]atomic.Int64, size),
		}
	}
	return s
}

// addPeerSent/addPeerRecv meter one hop's wire bytes against the (src,
// dest) pair. Unlike the collective meters they see the hops a collective
// is composed of — per-link traffic is exactly what a schedule reshapes, so
// it is what these counters exist to show.
func (s *Stats) addPeerSent(src, dest, bytes int) {
	if src != dest {
		s.ranks[src].peerSent[dest].Add(int64(bytes))
	}
}

func (s *Stats) addPeerRecv(dst, src, bytes int) {
	if src != dst {
		s.ranks[dst].peerRecv[src].Add(int64(bytes))
	}
}

// loadRow copies a row of live counters.
func loadRow(row []atomic.Int64) []int64 {
	out := make([]int64, len(row))
	for i := range row {
		out[i] = row[i].Load()
	}
	return out
}

func (s *Stats) addCollective(rank int, kind collKind, bytes int) {
	c := &s.ranks[rank].coll[kind]
	c.calls.Add(1)
	c.bytes.Add(int64(bytes))
}

// Totals is a point-in-time aggregate of all ranks' collective counters:
// calls, and the logical payload bytes they moved.
type Totals struct {
	Calls int
	Bytes int
}

// Snapshot sums all ranks' counters. Callers diff two snapshots to meter a
// phase. It reads only the world's own meters — the transport's robustness
// counters are a separate, colder read (Net).
func (s *Stats) Snapshot() Totals {
	var t Totals
	for _, m := range s.ranks {
		for k := range m.coll {
			t.Calls += int(m.coll[k].calls.Load())
			t.Bytes += int(m.coll[k].bytes.Load())
		}
	}
	return t
}

// Net samples the transport's robustness counters (retries, reconnects,
// retransmits, heartbeat misses, CRC errors, per-peer bytes); all zero for
// in-process worlds. Sampling allocates the per-peer rows, so it stays off
// the per-exchange metering path: the observer's iteration event and
// end-of-run reports are its readers.
func (s *Stats) Net() NetStats {
	if s.net == nil {
		return NetStats{}
	}
	return s.net()
}

// Sub returns t - u fieldwise.
func (t Totals) Sub(u Totals) Totals {
	return Totals{Calls: t.Calls - u.Calls, Bytes: t.Bytes - u.Bytes}
}

// PerRank returns a copy of the per-rank tallies, indexed by rank. A kind a
// rank never called has no Collectives entry.
func (s *Stats) PerRank() []RankStats {
	out := make([]RankStats, len(s.ranks))
	for i, m := range s.ranks {
		out[i] = RankStats{
			Collectives:   make(map[string]CollectiveStats, numCollKinds),
			PeerBytesSent: loadRow(m.peerSent),
			PeerBytesRecv: loadRow(m.peerRecv),
		}
		for k := range m.coll {
			if calls := m.coll[k].calls.Load(); calls > 0 {
				out[i].Collectives[collNames[k]] = CollectiveStats{Calls: int(calls), Bytes: int(m.coll[k].bytes.Load())}
			}
		}
	}
	return out
}
