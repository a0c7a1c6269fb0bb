// Package lattice defines the recursive-aggregate interface of the paper
// (Listing 1) and the standard aggregators built on it. An aggregator views
// the dependent column(s) of a relation as elements of a join-semilattice;
// the fused deduplication/aggregation pass merges dependent values with the
// lattice join (the paper's partial_agg), and a tuple only enters Δ when its
// merged value strictly increases in the lattice order — which is what
// guarantees the ascending-chain termination argument of §III.
package lattice

import (
	"fmt"
	"math"

	"paralagg/internal/tuple"
)

// Order is the result of comparing two dependent values in the aggregate's
// partial order (the paper's partial_cmp).
type Order int

// The possible outcomes of a partial-order comparison.
const (
	Less         Order = iota // a strictly below b: Join(a,b) == b
	Equal                     // a == b
	Greater                   // a strictly above b: Join(a,b) == a
	Incomparable              // neither bounds the other; Join is a new value
)

func (o Order) String() string {
	switch o {
	case Less:
		return "Less"
	case Equal:
		return "Equal"
	case Greater:
		return "Greater"
	case Incomparable:
		return "Incomparable"
	}
	return fmt.Sprintf("Order(%d)", int(o))
}

// Aggregator is the recursive-aggregate contract (the paper's
// RecursiveAggregator). Width is the number of dependent columns
// (dependent_column in the C++ API returns a vector of that length); Join is
// partial_agg, the least upper bound; Compare is partial_cmp.
//
// Join must be commutative and associative, and for true semilattice
// aggregates (Min, Max, BitOr, LexMin2) also idempotent. Monotone-stream
// aggregates (MSum, MCount) relax idempotence and instead rely on the
// runtime's exactly-once delivery of contributions; see their docs.
type Aggregator interface {
	// Name identifies the aggregate in diagnostics and plan dumps, e.g.
	// "$MIN".
	Name() string
	// Width is the number of dependent columns the aggregate consumes.
	Width() int
	// Join returns a ⊔ b. Arguments have Width columns; they must not be
	// mutated. The result may alias either argument.
	Join(a, b []tuple.Value) []tuple.Value
	// Compare orders a against b in the aggregate's partial order.
	Compare(a, b []tuple.Value) Order
}

// Idempotent reports whether agg's Join is idempotent (a true semilattice):
// Min, Max, FMin, BitOr and LexMin2 are, MSum and MCount are not. The
// runtime uses this to decide whether re-delivered tuples are harmless.
func Idempotent(agg Aggregator) bool {
	_, monotoneStream := agg.(interface{ monotoneStream() })
	return !monotoneStream
}

// Selective reports whether agg's Join always returns one of its arguments
// (a ⊔ b ∈ {a, b}), so its order is total and a key's value is the value
// of at least one derivation: Min, Max, FMin and LexMin2 are selective;
// BitOr (a union), MSum, MCount and every aggregator defined outside this
// package are not. Retraction relies on it: a derivation whose value is
// strictly below a key's stored value does not attain it, so deleting it
// leaves the key as it is.
func Selective(agg Aggregator) bool {
	_, ok := agg.(interface{ selective() })
	return ok
}

// equal1 compares single-word dependent values.
func cmp1(a, b tuple.Value) Order {
	switch {
	case a == b:
		return Equal
	case a < b:
		return Less
	default:
		return Greater
	}
}

// Min is the $MIN aggregate: the dependent value decreases toward the
// lattice top. Smaller is "better": Join returns the minimum, and Compare
// reports a value with a *smaller* payload as Greater (higher in the
// lattice), because it carries more information about the final answer.
type Min struct{}

func (Min) selective() {}

// Name implements Aggregator.
func (Min) Name() string { return "$MIN" }

// Width implements Aggregator.
func (Min) Width() int { return 1 }

// Join implements Aggregator: the numeric minimum.
func (Min) Join(a, b []tuple.Value) []tuple.Value {
	if b[0] < a[0] {
		return b
	}
	return a
}

// Compare implements Aggregator. Numerically smaller values are Greater in
// the lattice order.
func (Min) Compare(a, b []tuple.Value) Order { return cmp1(b[0], a[0]) }

// Max is the $MAX aggregate: Join returns the numeric maximum.
type Max struct{}

func (Max) selective() {}

// Name implements Aggregator.
func (Max) Name() string { return "$MAX" }

// Width implements Aggregator.
func (Max) Width() int { return 1 }

// Join implements Aggregator: the numeric maximum.
func (Max) Join(a, b []tuple.Value) []tuple.Value {
	if b[0] > a[0] {
		return b
	}
	return a
}

// Compare implements Aggregator.
func (Max) Compare(a, b []tuple.Value) Order { return cmp1(a[0], b[0]) }

// BitOr accumulates a 64-bit set union; it is the power-set lattice on a
// fixed universe of 64 elements and is useful for small reachability
// summaries.
type BitOr struct{}

// Name implements Aggregator.
func (BitOr) Name() string { return "$BOR" }

// Width implements Aggregator.
func (BitOr) Width() int { return 1 }

// Join implements Aggregator: bitwise union.
func (BitOr) Join(a, b []tuple.Value) []tuple.Value {
	return []tuple.Value{a[0] | b[0]}
}

// Compare implements Aggregator: subset order.
func (BitOr) Compare(a, b []tuple.Value) Order {
	switch {
	case a[0] == b[0]:
		return Equal
	case a[0]|b[0] == b[0]:
		return Less
	case a[0]|b[0] == a[0]:
		return Greater
	default:
		return Incomparable
	}
}

// FMin is $MIN over IEEE-754 doubles stored as their bit patterns
// (math.Float64bits). Only finite, non-NaN values are meaningful.
type FMin struct{}

func (FMin) selective() {}

// Name implements Aggregator.
func (FMin) Name() string { return "$FMIN" }

// Width implements Aggregator.
func (FMin) Width() int { return 1 }

// Join implements Aggregator.
func (FMin) Join(a, b []tuple.Value) []tuple.Value {
	if math.Float64frombits(b[0]) < math.Float64frombits(a[0]) {
		return b
	}
	return a
}

// Compare implements Aggregator.
func (FMin) Compare(a, b []tuple.Value) Order {
	fa, fb := math.Float64frombits(a[0]), math.Float64frombits(b[0])
	switch {
	case fa == fb:
		return Equal
	case fb < fa:
		return Less
	default:
		return Greater
	}
}

// LexMin2 is a two-column lexicographic minimum: it demonstrates multi-word
// dependent values (dep_val_t as a vector in the paper's API). The pair
// (a0, a1) is better than (b0, b1) when it is lexicographically smaller.
type LexMin2 struct{}

func (LexMin2) selective() {}

// Name implements Aggregator.
func (LexMin2) Name() string { return "$LEXMIN2" }

// Width implements Aggregator.
func (LexMin2) Width() int { return 2 }

// Join implements Aggregator: the lexicographic minimum of the two pairs.
func (LexMin2) Join(a, b []tuple.Value) []tuple.Value {
	if b[0] < a[0] || (b[0] == a[0] && b[1] < a[1]) {
		return b
	}
	return a
}

// Compare implements Aggregator.
func (LexMin2) Compare(a, b []tuple.Value) Order {
	if a[0] == b[0] && a[1] == b[1] {
		return Equal
	}
	if b[0] < a[0] || (b[0] == a[0] && b[1] < a[1]) {
		return Less
	}
	return Greater
}

// MSum is the monotonic-sum aggregate used by PageRank-style queries: the
// accumulator is the running sum of all delivered contributions. It is
// monotone for non-negative contributions but *not* idempotent, so it is
// only sound under the runtime's exactly-once delivery of generated tuples
// (each join output reaches the accumulator exactly once). Floating-point
// contributions use Float64bits encoding.
type MSum struct{}

func (MSum) monotoneStream() {}

// Name implements Aggregator.
func (MSum) Name() string { return "$MSUM" }

// Width implements Aggregator.
func (MSum) Width() int { return 1 }

// Join implements Aggregator: float64 addition of the encoded values.
func (MSum) Join(a, b []tuple.Value) []tuple.Value {
	s := math.Float64frombits(a[0]) + math.Float64frombits(b[0])
	return []tuple.Value{math.Float64bits(s)}
}

// Compare implements Aggregator: numeric order of the running sums.
func (MSum) Compare(a, b []tuple.Value) Order {
	fa, fb := math.Float64frombits(a[0]), math.Float64frombits(b[0])
	switch {
	case fa == fb:
		return Equal
	case fa < fb:
		return Less
	default:
		return Greater
	}
}

// MCount is the monotonic count ($MCOUNT): the accumulator counts delivered
// contributions. Like MSum it is not idempotent and relies on exactly-once
// delivery.
type MCount struct{}

func (MCount) monotoneStream() {}

// Name implements Aggregator.
func (MCount) Name() string { return "$MCOUNT" }

// Width implements Aggregator.
func (MCount) Width() int { return 1 }

// Join implements Aggregator: integer addition (each contribution carries
// its own partial count, usually 1).
func (MCount) Join(a, b []tuple.Value) []tuple.Value {
	return []tuple.Value{a[0] + b[0]}
}

// Compare implements Aggregator.
func (MCount) Compare(a, b []tuple.Value) Order { return cmp1(a[0], b[0]) }
