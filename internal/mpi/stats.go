package mpi

import "sync/atomic"

// Stats meters every transfer in a world. Counters are per sending rank so
// that imbalance is visible; Totals sums them. The meter distinguishes
// point-to-point traffic from each collective kind because the cost model
// charges latency per collective and bandwidth per byte.
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
	collBcast
	collAlltoallv
	collAllgatherv
	collGather
	numCollKinds
)

// collNames are the RankStats.Collectives keys.
var collNames = [numCollKinds]string{
	"barrier", "allreduce", "allreducevec", "allgather", "bcast", "alltoallv", "allgatherv", "gather",
}

// rankMeter is one rank's row of live counters. Rows are separate
// allocations so two ranks' hot counters do not share a cache line.
type rankMeter struct {
	p2pMessages, p2pBytes atomic.Int64
	coll                  [numCollKinds]struct{ calls, bytes atomic.Int64 }
	peerSent, peerRecv    []atomic.Int64
}

// RankStats is one rank's outbound communication tally.
type RankStats struct {
	P2PMessages int
	P2PBytes    int
	Collectives map[string]CollectiveStats
	// PeerBytesSent/PeerBytesRecv are this rank's per-peer wire bytes,
	// indexed by peer rank — every point-to-point transfer plus every hop a
	// collective schedule routed through this rank. They are the input the
	// similarity schedule is built from, and how a benchmark sees traffic
	// concentration (e.g. bytes through the flat star's root). The self
	// entry stays zero: local hand-offs never touch a wire.
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

// addPeerSent/addPeerRecv meter one wire transfer's bytes against the
// (src, dest) pair. Unlike addP2P they also see the internal hops
// collectives are composed of — per-link traffic is exactly what a
// schedule reshapes, so it is what these counters exist to show.
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

// PeerMatrix returns a copy of the per-peer sent-bytes matrix (entry [i][j]
// = bytes rank i sent rank j), the similarity schedule's input shape.
func (s *Stats) PeerMatrix() [][]int64 {
	out := make([][]int64, len(s.ranks))
	for i, m := range s.ranks {
		out[i] = loadRow(m.peerSent)
	}
	return out
}

func (s *Stats) addP2P(src, dest, bytes int) {
	if src == dest {
		return // local hand-off, never touches the wire
	}
	s.ranks[src].p2pMessages.Add(1)
	s.ranks[src].p2pBytes.Add(int64(bytes))
}

func (s *Stats) addCollective(rank int, kind collKind, bytes int) {
	c := &s.ranks[rank].coll[kind]
	c.calls.Add(1)
	c.bytes.Add(int64(bytes))
}

// Totals is a point-in-time aggregate of all ranks' counters.
type Totals struct {
	P2PMessages     int
	P2PBytes        int
	CollectiveCalls int
	CollectiveBytes int
}

// Snapshot sums all ranks' counters. Callers diff two snapshots to meter a
// phase. It reads only the world's own meters — the transport's robustness
// counters are a separate, colder read (Net).
func (s *Stats) Snapshot() Totals {
	var t Totals
	for _, m := range s.ranks {
		t.P2PMessages += int(m.p2pMessages.Load())
		t.P2PBytes += int(m.p2pBytes.Load())
		for k := range m.coll {
			t.CollectiveCalls += int(m.coll[k].calls.Load())
			t.CollectiveBytes += int(m.coll[k].bytes.Load())
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
	return Totals{
		P2PMessages:     t.P2PMessages - u.P2PMessages,
		P2PBytes:        t.P2PBytes - u.P2PBytes,
		CollectiveCalls: t.CollectiveCalls - u.CollectiveCalls,
		CollectiveBytes: t.CollectiveBytes - u.CollectiveBytes,
	}
}

// Add returns t + u fieldwise.
func (t Totals) Add(u Totals) Totals {
	return Totals{
		P2PMessages:     t.P2PMessages + u.P2PMessages,
		P2PBytes:        t.P2PBytes + u.P2PBytes,
		CollectiveCalls: t.CollectiveCalls + u.CollectiveCalls,
		CollectiveBytes: t.CollectiveBytes + u.CollectiveBytes,
	}
}

// Bytes returns the total payload bytes across P2P and collectives.
func (t Totals) Bytes() int { return t.P2PBytes + t.CollectiveBytes }

// PerRank returns a copy of the per-rank tallies, indexed by rank. A kind a
// rank never called has no Collectives entry.
func (s *Stats) PerRank() []RankStats {
	out := make([]RankStats, len(s.ranks))
	for i, m := range s.ranks {
		out[i] = RankStats{
			P2PMessages:   int(m.p2pMessages.Load()),
			P2PBytes:      int(m.p2pBytes.Load()),
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
