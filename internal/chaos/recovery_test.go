package chaos

import "testing"

// The hot-replacement differentials at 4 and 8 ranks, on the skewed
// sub-bucketed scenario, and the whole-world restart control arm.
func TestTCPHotReplaceBitIdentical4(t *testing.T) {
	rows(t, "", "recovery", "hot-replace/sssp/ranks=4")
}
func TestTCPHotReplaceBitIdentical8(t *testing.T) {
	rows(t, "", "recovery", "hot-replace/sssp/ranks=8")
}
func TestTCPHotReplaceSkewSubBuckets(t *testing.T) { rows(t, "", "recovery", "hot-replace/sssp-skew/") }
func TestTCPFullRestartBitIdentical(t *testing.T)  { rows(t, "", "recovery", "full-restart/") }

// TestHotReplaceBeatsFullRestart is the reason the survivors are kept
// alive: the same crash must be cheaper to repair in place.
func TestHotReplaceBeatsFullRestart(t *testing.T) { rows(t, "", "recovery", "mttr/") }

// TestTCPHotReplaceTreeSchedule is the schedule-aware recovery differential:
// the whole gang — victim, survivors, and the replacement — routes its
// collectives through the binomial tree schedule while rank 3 is killed
// mid-exchange and hot-replaced. The recovered answer must be bit-identical
// not only to the tree-scheduled reference TCPHotReplace computes itself,
// but also to a flat-scheduled in-process run: one bar proving both that
// recovery works under multi-hop routing and that the routing shape never
// changes the answer.
func TestTCPHotReplaceTreeSchedule(t *testing.T) { rows(t, "tree", "recovery", "cross-schedule/") }
