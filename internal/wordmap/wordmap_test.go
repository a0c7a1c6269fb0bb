package wordmap

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"paralagg/internal/tuple"
)

// refKey encodes a word key the way the retired keyString helper did, so the
// reference model is exactly the map the production code used before.
func refKey(key []tuple.Value) string {
	b := make([]byte, 8*len(key))
	for i, v := range key {
		binary.LittleEndian.PutUint64(b[i*8:], uint64(v))
	}
	return string(b)
}

func TestBasicUpsertGet(t *testing.T) {
	m := New(2, 1)
	if m.Len() != 0 {
		t.Fatalf("new map Len = %d", m.Len())
	}
	if got := m.Get([]tuple.Value{1, 2}); got != nil {
		t.Fatalf("Get on empty map = %v", got)
	}
	v, ins := m.Upsert([]tuple.Value{1, 2})
	if !ins || len(v) != 1 || v[0] != 0 {
		t.Fatalf("first Upsert = %v, %v", v, ins)
	}
	v[0] = 42
	v2, ins := m.Upsert([]tuple.Value{1, 2})
	if ins || v2[0] != 42 {
		t.Fatalf("second Upsert = %v, %v", v2, ins)
	}
	if got := m.Get([]tuple.Value{1, 2}); len(got) != 1 || got[0] != 42 {
		t.Fatalf("Get = %v", got)
	}
	if got := m.Get([]tuple.Value{2, 1}); got != nil {
		t.Fatalf("Get of absent permuted key = %v", got)
	}
	if m.Len() != 1 {
		t.Fatalf("Len = %d", m.Len())
	}
}

func TestZeroValWidthSet(t *testing.T) {
	m := New(3, 0)
	for i := 0; i < 100; i++ {
		k := []tuple.Value{tuple.Value(i), tuple.Value(i * 7), 5}
		if _, ins := m.Upsert(k); !ins {
			t.Fatalf("key %d reported duplicate on first insert", i)
		}
		if _, ins := m.Upsert(k); ins {
			t.Fatalf("key %d reported fresh on second insert", i)
		}
		if got := m.Get(k); got == nil || len(got) != 0 {
			t.Fatalf("Get(%d) = %v, want present empty", i, got)
		}
	}
	if m.Len() != 100 {
		t.Fatalf("Len = %d", m.Len())
	}
}

func TestInsertionOrderIteration(t *testing.T) {
	m := New(1, 1)
	const n = 1000 // crosses several resize boundaries
	for i := 0; i < n; i++ {
		v, _ := m.Upsert([]tuple.Value{tuple.Value(i * 31)})
		v[0] = tuple.Value(i)
	}
	next := 0
	m.Each(func(key, val []tuple.Value) bool {
		if key[0] != tuple.Value(next*31) || val[0] != tuple.Value(next) {
			t.Fatalf("entry %d: key=%v val=%v", next, key, val)
		}
		k2, v2 := m.At(next)
		if k2[0] != key[0] || v2[0] != val[0] {
			t.Fatalf("At(%d) = %v,%v disagrees with Each", next, k2, v2)
		}
		next++
		return true
	})
	if next != n {
		t.Fatalf("Each visited %d entries, want %d", next, n)
	}
	// Early termination.
	count := 0
	m.Each(func(key, val []tuple.Value) bool { count++; return count < 5 })
	if count != 5 {
		t.Fatalf("Each with early stop visited %d", count)
	}
}

func TestResetReuse(t *testing.T) {
	m := New(2, 2)
	fill := func(tag tuple.Value) {
		for i := 0; i < 300; i++ {
			v, ins := m.Upsert([]tuple.Value{tuple.Value(i), tag})
			if !ins {
				t.Fatalf("tag %d key %d: duplicate after Reset", tag, i)
			}
			v[0], v[1] = tag, tuple.Value(i)
		}
	}
	fill(1)
	m.Reset()
	if m.Len() != 0 {
		t.Fatalf("Len after Reset = %d", m.Len())
	}
	if got := m.Get([]tuple.Value{0, 1}); got != nil {
		t.Fatalf("stale entry survived Reset: %v", got)
	}
	fill(2)
	if m.Len() != 300 {
		t.Fatalf("Len after refill = %d", m.Len())
	}
	if got := m.Get([]tuple.Value{7, 2}); got == nil || got[0] != 2 || got[1] != 7 {
		t.Fatalf("refill entry = %v", got)
	}
}

// TestDifferentialFuzz drives random insert/lookup/merge/iterate sequences
// against a map[string][]tuple.Value reference model — the exact structure
// wordmap replaced — across several key/value widths and enough volume to
// cross multiple resize boundaries.
func TestDifferentialFuzz(t *testing.T) {
	type shape struct{ keyW, valW int }
	shapes := []shape{{1, 1}, {2, 1}, {2, 0}, {3, 2}, {5, 4}}
	for _, sh := range shapes {
		rng := rand.New(rand.NewSource(int64(0xC0FFEE + sh.keyW*100 + sh.valW)))
		m := New(sh.keyW, sh.valW)
		ref := map[string][]tuple.Value{}
		var refOrder []string

		randKey := func() []tuple.Value {
			k := make([]tuple.Value, sh.keyW)
			for i := range k {
				// Small domain so lookups hit existing keys often.
				k[i] = tuple.Value(rng.Intn(40))
			}
			return k
		}

		const ops = 20000
		for op := 0; op < ops; op++ {
			switch rng.Intn(10) {
			case 0, 1, 2, 3: // insert/overwrite
				k := randKey()
				v, ins := m.Upsert(k)
				rk := refKey(k)
				_, present := ref[rk]
				if ins == present {
					t.Fatalf("%v op %d: Upsert(%v) inserted=%v, ref present=%v", sh, op, k, ins, present)
				}
				if !present {
					ref[rk] = make([]tuple.Value, sh.valW)
					refOrder = append(refOrder, rk)
				}
				for i := range v {
					nv := tuple.Value(rng.Uint64())
					v[i] = nv
					ref[rk][i] = nv
				}
			case 4, 5, 6: // lookup
				k := randKey()
				got := m.Get(k)
				want, present := ref[refKey(k)]
				if present != (got != nil) {
					t.Fatalf("%v op %d: Get(%v) present=%v, ref=%v", sh, op, k, got != nil, present)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%v op %d: Get(%v) = %v, ref %v", sh, op, k, got, want)
					}
				}
			case 7, 8: // merge: lattice-style min-join into the value in place
				if sh.valW == 0 {
					continue
				}
				k := randKey()
				nv := tuple.Value(rng.Intn(1000))
				v, ins := m.Upsert(k)
				rk := refKey(k)
				if ins {
					v[0] = nv
					ref[rk] = make([]tuple.Value, sh.valW)
					copy(ref[rk], v)
					refOrder = append(refOrder, rk)
				} else if nv < v[0] {
					v[0] = nv
					ref[rk][0] = nv
				}
			case 9: // full iteration: order, widths, contents
				i := 0
				m.Each(func(key, val []tuple.Value) bool {
					if len(key) != sh.keyW || len(val) != sh.valW {
						t.Fatalf("%v op %d: entry widths %d/%d", sh, op, len(key), len(val))
					}
					rk := refKey(key)
					if rk != refOrder[i] {
						t.Fatalf("%v op %d: entry %d out of insertion order", sh, op, i)
					}
					want := ref[rk]
					for j := range want {
						if val[j] != want[j] {
							t.Fatalf("%v op %d: entry %d val %v, ref %v", sh, op, i, val, want)
						}
					}
					i++
					return true
				})
				if i != len(ref) || m.Len() != len(ref) {
					t.Fatalf("%v op %d: iterated %d, Len %d, ref %d", sh, op, i, m.Len(), len(ref))
				}
			}
		}
		if m.Len() != len(ref) {
			t.Fatalf("%v: final Len %d, ref %d", sh, m.Len(), len(ref))
		}
	}
}

// TestGrowthBoundaries inserts exactly up to and past each resize threshold
// and verifies every prior entry survives the rehash.
func TestGrowthBoundaries(t *testing.T) {
	m := New(1, 1)
	for i := 0; i < 4000; i++ {
		v, ins := m.Upsert([]tuple.Value{tuple.Value(i)})
		if !ins {
			t.Fatalf("key %d duplicate", i)
		}
		v[0] = tuple.Value(i * 3)
		// After each insert that may have grown the table, spot-check the
		// oldest, newest, and a middle entry.
		for _, probe := range []int{0, i / 2, i} {
			got := m.Get([]tuple.Value{tuple.Value(probe)})
			if got == nil || got[0] != tuple.Value(probe*3) {
				t.Fatalf("after insert %d: Get(%d) = %v", i, probe, got)
			}
		}
	}
}

func TestUpsertExistingAllocFree(t *testing.T) {
	m := NewWithCapacity(2, 1, 256)
	keys := make([][]tuple.Value, 256)
	for i := range keys {
		keys[i] = []tuple.Value{tuple.Value(i), tuple.Value(i * 17)}
		v, _ := m.Upsert(keys[i])
		v[0] = tuple.Value(i)
	}
	allocs := testing.AllocsPerRun(100, func() {
		for _, k := range keys {
			if v, ins := m.Upsert(k); ins || v[0] >= 256 {
				t.Fatal("unexpected insert")
			}
			if m.Get(k) == nil {
				t.Fatal("missing key")
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("Upsert/Get of existing keys: %v allocs/run, want 0", allocs)
	}
}

// TestFilterCompactsInPlace drops random subsets from a map grown past
// several rehashes and checks it against a Go map: survivors keep their
// values and insertion order, dropped keys are gone, later Upserts insert
// and find as usual, and the map keeps its backing storage.
func TestFilterCompactsInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := New(2, 1)
	ref := map[[2]tuple.Value]tuple.Value{}
	var order [][2]tuple.Value
	for round := 0; round < 20; round++ {
		for i := 0; i < 200; i++ {
			k := [2]tuple.Value{tuple.Value(rng.Intn(500)), tuple.Value(rng.Intn(3))}
			v, ins := m.Upsert(k[:])
			if ins {
				order = append(order, k)
			}
			v[0] = tuple.Value(rng.Int63())
			ref[k] = v[0]
		}
		words, slots := cap(m.arena), len(m.slots)
		drop := tuple.Value(rng.Intn(5))
		m.Filter(func(key, val []tuple.Value) bool { return (key[0]+val[0])%5 != drop })
		kept := order[:0]
		for _, k := range order {
			if (k[0]+ref[k])%5 != drop {
				kept = append(kept, k)
			} else {
				delete(ref, k)
			}
		}
		order = kept
		if m.Len() != len(ref) || cap(m.arena) != words || len(m.slots) != slots {
			t.Fatalf("round %d: len %d (want %d), arena cap %d→%d, slots %d→%d",
				round, m.Len(), len(ref), words, cap(m.arena), slots, len(m.slots))
		}
		for e, k := range order {
			key, val := m.At(e)
			if key[0] != k[0] || key[1] != k[1] || val[0] != ref[k] {
				t.Fatalf("round %d: entry %d = %v→%v, want %v→%d", round, e, key, val, k, ref[k])
			}
			if got := m.Get(k[:]); got == nil || got[0] != ref[k] {
				t.Fatalf("round %d: Get(%v) = %v, want %d", round, k, got, ref[k])
			}
		}
	}
}

// TestFilterAllocFree pins the in-place compaction: dropping half the keys
// of a warmed map and re-inserting them allocates nothing.
func TestFilterAllocFree(t *testing.T) {
	m := NewWithCapacity(1, 1, 1024)
	for i := 0; i < 1024; i++ {
		m.Upsert([]tuple.Value{tuple.Value(i)})
	}
	key := make([]tuple.Value, 1)
	allocs := testing.AllocsPerRun(50, func() {
		m.Filter(func(k, _ []tuple.Value) bool { return k[0]%2 == 0 })
		for i := 1; i < 1024; i += 2 {
			key[0] = tuple.Value(i)
			m.Upsert(key)
		}
	})
	if allocs != 0 || m.Len() != 1024 {
		t.Fatalf("Filter and refill: %v allocs/run, %d entries; want 0 and 1024", allocs, m.Len())
	}
}
