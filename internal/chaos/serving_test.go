package chaos

import "testing"

// TestServingDifferentials streams every serving scenario's mutation batches
// into a long-lived engine at 1, 2, and 4 in-process ranks and into one
// engine per member of 2- and 4-rank loopback TCP gangs, and requires the
// resident relations to be bit-identical to a from-scratch recomputation
// after the initial load and after every batch — the serving engine's
// correctness bar.
func TestServingDifferentials(t *testing.T) { rows(t, "", "serving", "") }

// TestServingInsertsStrictlyCheaper pins the communication saving on the
// insert-only scenario: a batch continues the fixpoint from its seeded Δ, so
// it must re-converge in strictly fewer iterations than recomputing from
// zero. (Every serving row asserts it of its insert-only batches.)
func TestServingInsertsStrictlyCheaper(t *testing.T) { rows(t, "", "serving", "sssp-insert/") }

// TestServingDeletesInvalidate pins, on the delete-only scenario, that
// delete batches actually exercise the invalidation path (rounds and drops
// nonzero) rather than silently degenerating to a no-op. (Every serving row
// with a delete batch asserts it.)
func TestServingDeletesInvalidate(t *testing.T) { rows(t, "", "serving", "sssp-delete/") }
