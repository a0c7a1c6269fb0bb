package btree

import (
	"slices"

	"paralagg/internal/tuple"
	"paralagg/internal/wordmap"
)

// Frozen is a Run that changes only by whole batches or rebuilds. Given a
// join-key width jk above 0 (Reset), a directory maps every distinct jk-word
// prefix to the [lo, hi) words of its tuples, so AscendPrefix at width jk is
// one hash lookup and a scan with no compares; the zero value has none. Fill
// it with Load. Merge and Filter rewrite the run into a spare buffer and
// swap the two (ping-pong), so warm batches allocate nothing. Every change
// refills the directory in place.
type Frozen struct {
	Run
	jk, dirCap int
	dir        *wordmap.Map // jk prefix words → lo, hi word offsets into the run
	spare      []tuple.Value
}

// Reset empties the run and directory, keeping their capacity, and sets the
// tuples' arity and the directory's key width (0: no directory).
func (f *Frozen) Reset(arity, jk int) {
	f.Run.Reset(arity)
	f.jk = jk
	if f.dir != nil {
		f.dir.Reset()
	}
}

// Load sorts run in place and makes it the frozen run, indexed; a run other
// than f's own Run trades buffers with it and is left empty.
func (f *Frozen) Load(run *Run, s *tuple.Sorter) {
	if run != &f.Run {
		f.arity, f.words, run.words = run.arity, run.words, f.words[:0]
	}
	f.Run.Sort(s)
	f.index()
}

// Merge adds batch's tuples, ascending and distinct, to the run and leaves
// in batch only those the run did not hold.
func (f *Frozen) Merge(batch *Run) { f.rewrite(batch, true) }

// Filter removes batch's tuples, ascending and distinct, from the run and
// leaves in batch only those the run held.
func (f *Frozen) Filter(batch *Run) { f.rewrite(batch, false) }

// rewrite compacts batch to the tuples that change the run; unless none do,
// it copies the run's stretches between them whole into the spare buffer,
// adding (Merge) or skipping (Filter) each, and makes the spare the run.
func (f *Frozen) rewrite(batch *Run, add bool) {
	a, old, in := f.arity, f.words, batch.words
	n, kept := len(old)/a, 0
	for j, i := 0, 0; j < len(in); j += a {
		t := in[j : j+a]
		i = searchRange(old, a, i, n, t)
		if held := i*a < len(old) && cmpWords(old[i*a:i*a+a], t) == 0; held != add {
			kept += copy(in[kept:], t)
		}
	}
	in = in[:kept]
	batch.words = in
	if kept == 0 {
		return
	}
	need := len(old) - kept
	if add {
		need = len(old) + kept
	}
	out := slices.Grow(f.spare[:0], need)
	i := 0 // the next tuple of old to copy
	for j := 0; j < len(in); j += a {
		t := in[j : j+a]
		at := searchRange(old, a, i, n, t)
		out = append(out, old[i*a:at*a]...)
		if add {
			out, i = append(out, t...), at
		} else {
			i = at + 1
		}
	}
	f.words, f.spare = append(out, old[i*a:]...), old[:0]
	f.index()
}

// index refills the directory, sized up front to the distinct prefixes.
func (f *Frozen) index() {
	a, k, w := f.arity, f.jk, f.words
	if k == 0 {
		return
	}
	distinct := 0
	for off := 0; off < len(w); off += a {
		if off == 0 || cmpWords(w[off-a:off-a+k], w[off:off+k]) != 0 {
			distinct++
		}
	}
	if f.dir == nil || distinct > f.dirCap {
		f.dir, f.dirCap = wordmap.NewWithCapacity(k, 2, distinct), distinct
	}
	f.dir.Reset()
	var span []tuple.Value
	for off := 0; off < len(w); off += a {
		if span == nil || cmpWords(w[off-a:off-a+k], w[off:off+k]) != 0 {
			span, _ = f.dir.Upsert(w[off : off+k])
			span[0] = tuple.Value(off)
		}
		span[1] = tuple.Value(off + a)
	}
}

// AscendPrefix is Run's, through the directory at width jk.
func (f *Frozen) AscendPrefix(prefix tuple.Tuple, fn func(tuple.Tuple) bool) {
	if len(prefix) != f.jk || f.jk == 0 || f.dir == nil {
		f.Run.AscendPrefix(prefix, fn)
		return
	}
	span := f.dir.Get(prefix)
	if span == nil {
		return
	}
	a := f.arity
	for off, hi := int(span[0]), int(span[1]); off < hi; off += a {
		if !fn(f.words[off : off+a : off+a]) {
			return
		}
	}
}

// MemWords reports the run's, the spare buffer's and the directory's
// capacity in words.
func (f *Frozen) MemWords() int64 {
	w := f.Run.MemWords() + int64(cap(f.spare))
	if f.dir != nil {
		w += f.dir.MemWords()
	}
	return w
}

// ReleaseSpare drops the spare buffer, which the next batch grows again.
func (f *Frozen) ReleaseSpare() { f.spare = nil }
