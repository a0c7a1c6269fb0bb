package ra

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"paralagg/internal/mpi"
	"paralagg/internal/relation"
)

// Checkpoint/restart for the fixpoint. Every K iterations each rank
// snapshots the stratum's relations (every index's FULL and Δ, accumulator,
// sub-bucket map, changed counts) through a sink; after a rank failure a
// fresh world reloads the latest agreed snapshot and re-runs to the
// identical fixpoint. The snapshot is rank-local (shards never cross the
// wire to checkpoint), so checkpointing adds no communication — only the
// serialization cost metered as metrics.PhaseCheckpoint.
//
// There is one file format and one sink. A Sink encodes every generation
// into the one envelope and keeps the bytes in a store — a map in process
// memory or a directory on disk — so an in-process run reads its
// checkpoints through the decoder, CRC and manifest check a disk resume
// does. A corrupt newest generation is set aside and recovery degrades by
// one generation instead of bricking.

// Checkpoint is one rank's saved fixpoint position: the stratum and the
// number of completed iterations, plus the serialized relation shards.
type Checkpoint struct {
	Ranks   int // world size at save time; a resume into another size re-hashes the whole set
	Stratum int
	Iter    int // completed iterations; resume re-enters the loop here
	Words   []mpi.Word
	// SectionSums holds one ckptSum per length-prefixed relation section of
	// Words, written by the fixpoint's checkpoint pass. The envelope carries
	// it as the checkpoint's manifest and the decoder re-verifies each
	// section, so a corrupt relation payload is named, not just detected.
	// Empty means the payload carries no section structure (whole-file
	// validation only).
	SectionSums []uint64
	// SendSeqs and RecvSeqs are the per-peer wire frame counters captured at
	// the checkpoint-marks rendezvous (mpi.CheckpointMarks), len Ranks each.
	// They seed a hot-replacement transport so the replacement's frame
	// stream aligns with the incarnation it replaces. Empty on worlds not
	// running the replacement protocol.
	SendSeqs []uint64
	RecvSeqs []uint64
}

// CheckpointSink stores the most recent Keep checkpoint generations per
// rank. Implementations must be safe for concurrent use by all ranks of a
// world and must write atomically: a crash mid-save must leave every
// previous generation readable.
type CheckpointSink interface {
	Save(rank int, cp Checkpoint) error
	// Latest returns the newest checkpoint generation saved for rank that
	// passes validation, or ok=false if none does. Corrupt newer
	// generations are quarantined along the way.
	Latest(rank int) (cp Checkpoint, ok bool, err error)
	// LatestValid scans generations newest-first and returns the position
	// of the newest checkpoint set that is complete — every rank of the
	// writing world holds a validating checkpoint at it. ok=false with a
	// nil error means no such set exists.
	LatestValid() (pos Position, ok bool, err error)
	// Load returns rank's validated checkpoint at pos, or ok=false if the
	// rank holds no valid checkpoint there.
	Load(rank int, pos Position) (cp Checkpoint, ok bool, err error)
}

// ErrNoCheckpoint reports a Resume attempt with an empty sink.
var ErrNoCheckpoint = errors.New("ra: no checkpoint to resume from")

// ErrCheckpointStorage reports a checkpoint save the storage layer refused
// even after freeing space: the device is full, a write came up short, or
// the rename/fsync failed. The partial file has been set aside as
// Path+".bad"; callers degrade (fall back to an in-memory sink, keep the
// run alive) instead of aborting.
type ErrCheckpointStorage struct {
	Path  string // the generation file the save was for
	Cause error  // the underlying storage error (first attempt's)
}

func (e *ErrCheckpointStorage) Error() string {
	return fmt.Sprintf("ra: checkpoint storage failed for %s: %v", e.Path, e.Cause)
}

// Unwrap exposes the cause to errors.Is/As.
func (e *ErrCheckpointStorage) Unwrap() error { return e.Cause }

// AsCheckpointStorage extracts a structured storage failure from an error
// chain. It reports false for every other failure mode.
func AsCheckpointStorage(err error) (*ErrCheckpointStorage, bool) {
	var cs *ErrCheckpointStorage
	ok := errors.As(err, &cs)
	return cs, ok
}

// DefaultCheckpointKeep is the per-rank generation retention applied when a
// sink's keep count is unset.
const DefaultCheckpointKeep = 3

// Checkpoint-validation telemetry, shared by every sink in the process.
// The supervisor and /metrics surface these so silent corruption-and-
// fallback cycles stay visible.
var (
	ckptValidationFailures atomic.Int64
	ckptQuarantined        atomic.Int64
	ckptDegradations       atomic.Int64
)

// CheckpointIntegrityStats returns the process-wide cumulative counts of
// checkpoint validation failures and quarantined generations.
func CheckpointIntegrityStats() (validationFailures, quarantined int64) {
	return ckptValidationFailures.Load(), ckptQuarantined.Load()
}

// CheckpointDegradations returns the process-wide cumulative count of
// fixpoint runs that fell back to in-memory checkpointing after persistent
// storage failed.
func CheckpointDegradations() int64 { return ckptDegradations.Load() }

// ckptSum digests one relation section for the checkpoint's manifest.
func ckptSum(words []mpi.Word) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, w := range words {
		h ^= uint64(w)
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 31
	}
	return h
}

// cutSection splits the length-prefixed section at the front of a payload
// from what follows it. The length word comes from storage, so it is bounded
// by the words present before anything is sliced from it.
func cutSection(words []mpi.Word) (section, rest []mpi.Word, err error) {
	if len(words) == 0 {
		return nil, nil, errors.New("payload ends before the section's length word")
	}
	n := words[0]
	if n > mpi.Word(len(words)-1) {
		return nil, nil, fmt.Errorf("section truncated (%d words declared, %d present)", n, len(words)-1)
	}
	return words[1 : 1+n], words[1+n:], nil
}

// verifySections re-derives each length-prefixed section's digest from the
// payload and compares against the manifest. A nil manifest skips the walk.
func verifySections(words []mpi.Word, sums []uint64) error {
	if len(sums) == 0 {
		return nil
	}
	rest := words
	for i, want := range sums {
		sec, tail, err := cutSection(rest)
		if err != nil {
			return fmt.Errorf("section %d of %d: %v", i, len(sums), err)
		}
		if got := ckptSum(sec); got != want {
			return fmt.Errorf("section %d of %d corrupt: digest %#x, manifest says %#x", i, len(sums), got, want)
		}
		rest = tail
	}
	if len(rest) != 0 {
		return fmt.Errorf("%d trailing payload words beyond the %d manifest sections", len(rest), len(sums))
	}
	return nil
}

// The one checkpoint envelope, in little-endian words: magic, format
// version, world size, stratum, iteration, section count, mark count; the
// marks block (SendSeqs, then RecvSeqs, mark count words each); the
// manifest (one digest per section); the payload length and the payload;
// and a trailing word holding the CRC32C of every byte before it.
// Version 4 is version 3 with an empty marks block allowed, written for
// every checkpoint. Version 5 has version 4's layout; it marks the placement
// its relation snapshots were cut by (an aggregated relation placed on its
// join key, rankOf counting the bucket at every sub-bucket count), which a
// same-size restore keeps wholesale. Version 6 keeps the envelope; its
// relation snapshots carry the local Δ count where the tuple-id counter was,
// no id section, and only the indexes a relation registers (an aggregated
// relation has no canonical tree unless a rule reads one). Version 7 keeps
// the envelope; its relation snapshots end with the heavy join keys a load
// decided, which place every tuple at Subs > 1. Files of earlier versions
// are refused, not migrated.
const (
	ckptMagic       uint64 = 0x70614c43_6b707434 // "paLCkpt4"
	ckptVersion     uint64 = 7
	ckptHeaderWords        = 7
)

// encodeCkpt renders cp in the checkpoint envelope.
func encodeCkpt(cp Checkpoint) []byte {
	nm, ns := len(cp.SendSeqs), len(cp.SectionSums)
	buf := make([]byte, 0, 8*(ckptHeaderWords+2*nm+ns+1+len(cp.Words)+1))
	put := func(ws ...uint64) {
		for _, w := range ws {
			buf = binary.LittleEndian.AppendUint64(buf, w)
		}
	}
	put(ckptMagic, ckptVersion, uint64(cp.Ranks), uint64(cp.Stratum), uint64(cp.Iter), uint64(ns), uint64(nm))
	put(cp.SendSeqs...)
	put(cp.RecvSeqs...)
	put(cp.SectionSums...)
	put(uint64(len(cp.Words)))
	put(cp.Words...)
	return binary.LittleEndian.AppendUint64(buf, uint64(mpi.CRC32C(buf)))
}

// decodeCkpt parses and fully validates a checkpoint envelope. Every error
// return means the bytes are corrupt, foreign, or of another format version.
func decodeCkpt(path string, buf []byte) (Checkpoint, error) {
	fail := func(format string, args ...any) (Checkpoint, error) {
		return Checkpoint{}, fmt.Errorf("ra: %s "+format, append([]any{path}, args...)...)
	}
	if len(buf) < 8*(ckptHeaderWords+2) || len(buf)%8 != 0 || binary.LittleEndian.Uint64(buf) != ckptMagic {
		return fail("is not a checkpoint file")
	}
	if v := binary.LittleEndian.Uint64(buf[8:]); v != ckptVersion {
		return fail("has checkpoint format version %d, this build reads %d", v, ckptVersion)
	}
	off := 16
	next := func() uint64 {
		off += 8
		return binary.LittleEndian.Uint64(buf[off-8:])
	}
	words := func(n uint64) []uint64 {
		if n == 0 {
			return nil
		}
		ws := make([]uint64, n)
		for i := range ws {
			ws[i] = next()
		}
		return ws
	}
	// Every declared count is compared, in words, with what is left before
	// the payload length and the CRC: multiplying an unchecked count up to
	// bytes could wrap around.
	left := func() uint64 { return uint64(len(buf)-off)/8 - 2 }
	cp := Checkpoint{Ranks: int(next()), Stratum: int(next()), Iter: int(next())}
	ns, nm := next(), next()
	if nm > left()/2 {
		return fail("truncated inside the marks block (%d marks declared)", nm)
	}
	cp.SendSeqs, cp.RecvSeqs = words(nm), words(nm)
	if ns > left() {
		return fail("truncated inside the manifest (%d sections declared)", ns)
	}
	cp.SectionSums = words(ns)
	n := next()
	if n != uint64(len(buf)-off)/8-1 {
		return fail("truncated: %d payload words declared, %d bytes present", n, len(buf))
	}
	cp.Words = words(n)
	if got, want := mpi.CRC32C(buf[:off]), uint32(next()); got != want {
		return fail("corrupt: file CRC %#x, trailer says %#x", got, want)
	}
	if err := verifySections(cp.Words, cp.SectionSums); err != nil {
		return fail("corrupt: %v", err)
	}
	return cp, nil
}

// store is the byte store a Sink keeps its generations in: named blobs that
// can be listed, read, replaced atomically, set aside and removed. read's
// result belongs to the store and must not be modified; write takes
// ownership of data.
type store interface {
	list() ([]string, error)
	read(name string) ([]byte, error) // fs.ErrNotExist once the name is gone
	write(name string, data []byte) error
	setAside(name string) error // renames name to name+".bad"
	remove(name string)
	path(name string) string // where name lives, for errors
}

// Sink is the one CheckpointSink: it keeps one envelope per generation,
// named rank-%04d.gen-%06d.ckpt, retains the last keep generations per rank,
// and sets a generation that fails validation aside as name+".bad". It is
// safe for concurrent use by all ranks of a world.
type Sink struct {
	st   store
	keep int
}

// NewMemorySink returns a sink over process memory. It survives a world
// teardown (the crash/restart cycle the chaos harness exercises) but not a
// process restart. keep < 1 means DefaultCheckpointKeep.
func NewMemorySink(keep int) *Sink {
	return newSink(&mapStore{}, keep)
}

// NewDirSink returns a sink persisting one file per generation under dir,
// surviving process restarts (the CLI's -resume flag). A save writes a
// temporary file, fsyncs it, renames it into place and fsyncs the
// directory, so an interrupted save never clobbers a previous generation
// and a completed save survives power loss. keep < 1 means
// DefaultCheckpointKeep.
func NewDirSink(dir string, keep int) *Sink { return newSink(dirStore(dir), keep) }

func newSink(st store, keep int) *Sink {
	if keep < 1 {
		keep = DefaultCheckpointKeep
	}
	return &Sink{st: st, keep: keep}
}

func genName(rank, gen int) string { return fmt.Sprintf("rank-%04d.gen-%06d.ckpt", rank, gen) }

// gens lists rank's live generations oldest-first, and the generations it
// set aside. Names the sink did not write (temporary files, strays) are
// ignored.
func (s *Sink) gens(rank int) (live, aside []int, err error) {
	names, err := s.st.list()
	if err != nil {
		return nil, nil, err
	}
	prefix := fmt.Sprintf("rank-%04d.gen-", rank)
	for _, name := range names {
		base, bad := strings.CutSuffix(name, ".bad")
		if !strings.HasPrefix(base, prefix) {
			continue
		}
		var g int
		if n, _ := fmt.Sscanf(base[len(prefix):], "%d.ckpt", &g); n != 1 || g < 0 || base != genName(rank, g) {
			continue
		}
		if bad {
			aside = append(aside, g)
		} else {
			live = append(live, g)
		}
	}
	sort.Ints(live)
	return live, aside, nil
}

// Save implements CheckpointSink: encode, write the next generation
// atomically, and prune generations beyond keep. A storage failure (ENOSPC,
// short write, IO error) leaves the partial set aside, frees space by
// pruning old generations down to the newest, and retries once; a second
// failure surfaces as *ErrCheckpointStorage so the caller can degrade
// instead of aborting the run.
func (s *Sink) Save(rank int, cp Checkpoint) error {
	live, aside, err := s.gens(rank)
	if err != nil {
		return err
	}
	gen := 1
	if len(live) > 0 {
		gen = live[len(live)-1] + 1
	}
	name, data := genName(rank, gen), encodeCkpt(cp)
	werr := s.st.write(name, data)
	if werr == nil {
		s.prune(rank, append(live, gen), aside, s.keep)
		return nil
	}
	s.prune(rank, live, aside, 1)
	if s.st.write(name, data) == nil {
		return nil
	}
	return &ErrCheckpointStorage{Path: s.st.path(name), Cause: werr}
}

// prune removes rank's oldest live generations so at most keep remain, and
// every set-aside generation older than the oldest one kept: a quarantined
// generation is no longer live, so without this sweep its .bad husk would
// escape retention and accumulate forever in long supervised runs. Newer
// quarantines stay for inspection exactly as long as a healthy sibling.
// Pruning is best effort: a generation that will not go away costs space,
// not a checkpoint.
func (s *Sink) prune(rank int, live, aside []int, keep int) {
	if len(live) == 0 {
		return
	}
	over := max(len(live)-keep, 0)
	for _, g := range live[:over] {
		s.st.remove(genName(rank, g))
	}
	for _, g := range aside {
		if g < live[over] {
			s.st.remove(genName(rank, g) + ".bad")
		}
	}
}

// newest returns rank's newest live generation that validates and satisfies
// match, setting aside every generation that fails validation. A generation
// that vanishes under a concurrent prune or quarantine is skipped without
// counting a validation failure; concurrent scans may race to set the same
// generation aside, and only the winner counts the quarantine.
func (s *Sink) newest(rank int, match func(Checkpoint) bool) (Checkpoint, bool, error) {
	live, _, err := s.gens(rank)
	for i := len(live) - 1; i >= 0 && err == nil; i-- {
		name := genName(rank, live[i])
		data, rerr := s.st.read(name)
		if errors.Is(rerr, fs.ErrNotExist) {
			continue
		}
		var cp Checkpoint
		if rerr == nil {
			cp, rerr = decodeCkpt(s.st.path(name), data)
		}
		if rerr != nil {
			ckptValidationFailures.Add(1)
			if s.st.setAside(name) == nil {
				ckptQuarantined.Add(1)
			}
		} else if match(cp) {
			return cp, true, nil
		}
	}
	return Checkpoint{}, false, err
}

// Latest implements CheckpointSink.
func (s *Sink) Latest(rank int) (Checkpoint, bool, error) {
	return s.newest(rank, func(Checkpoint) bool { return true })
}

// Load implements CheckpointSink.
func (s *Sink) Load(rank int, pos Position) (Checkpoint, bool, error) {
	return s.newest(rank, func(c Checkpoint) bool { return c.position() == pos })
}

// LatestValid implements CheckpointSink. Rank 0 belongs to every world, so
// its generations enumerate the candidate positions; each candidate is
// accepted only when every rank of the writing world holds a validating
// checkpoint at it.
func (s *Sink) LatestValid() (Position, bool, error) {
	cp, ok, err := s.newest(0, func(c Checkpoint) bool {
		for r := 1; r < c.Ranks; r++ {
			if _, ok, err := s.Load(r, c.position()); err != nil || !ok {
				return false
			}
		}
		return true
	})
	return cp.position(), ok, err
}

// TamperNewest flips one byte of the last payload word of rank's newest
// generation and writes it back without updating any checksum, so the next
// read must set it aside: the chaos harness's simulated bit rot. (The very
// last word is the CRC trailer, whose upper bytes are zero padding.)
func (s *Sink) TamperNewest(rank int) bool {
	live, _, err := s.gens(rank)
	if err != nil || len(live) == 0 {
		return false
	}
	name := genName(rank, live[len(live)-1])
	data, err := s.st.read(name)
	if err != nil || len(data) < 16 {
		return false
	}
	data = append([]byte(nil), data...)
	data[len(data)-9] ^= 0x40
	return s.st.write(name, data) == nil
}

// mapStore is the in-process store: name → []byte.
type mapStore struct{ blobs sync.Map }

func (m *mapStore) list() ([]string, error) {
	var names []string
	m.blobs.Range(func(name, _ any) bool { names = append(names, name.(string)); return true })
	return names, nil
}

func (m *mapStore) read(name string) ([]byte, error) {
	if data, ok := m.blobs.Load(name); ok {
		return data.([]byte), nil
	}
	return nil, fs.ErrNotExist
}

func (m *mapStore) write(name string, data []byte) error { m.blobs.Store(name, data); return nil }

func (m *mapStore) setAside(name string) error {
	data, ok := m.blobs.LoadAndDelete(name)
	if !ok {
		return fs.ErrNotExist
	}
	m.blobs.Store(name+".bad", data)
	return nil
}

func (m *mapStore) remove(name string) { m.blobs.Delete(name) }

func (m *mapStore) path(name string) string { return name }

// dirStore is the directory store. A missing directory is an empty store,
// not an error; the first write creates it.
type dirStore string

func (d dirStore) path(name string) string { return filepath.Join(string(d), name) }

func (d dirStore) list() ([]string, error) {
	ents, err := os.ReadDir(string(d))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	names := make([]string, len(ents))
	for i, e := range ents {
		names[i] = e.Name()
	}
	return names, err
}

func (d dirStore) read(name string) ([]byte, error) { return os.ReadFile(d.path(name)) }

func (d dirStore) setAside(name string) error { return os.Rename(d.path(name), d.path(name)+".bad") }

func (d dirStore) remove(name string) { os.Remove(d.path(name)) }

// write stores data durably under name: temp file, fsync, rename into
// place, fsync the directory. On failure the partial file is quarantined to
// name+".bad" (never left where a scan could mistake it for a checkpoint),
// or removed if even the rename fails.
func (d dirStore) write(name string, data []byte) error {
	if err := os.MkdirAll(string(d), 0o755); err != nil {
		return err
	}
	final := d.path(name)
	tmp := final + ".tmp"
	err := writeFileSync(tmp, data)
	if err == nil {
		if err = os.Rename(tmp, final); err == nil {
			if err = syncDir(string(d)); err == nil {
				return nil
			}
			// The rename landed but is not durable: quarantine the
			// generation like any other partial.
			tmp = final
		}
	}
	if rerr := os.Rename(tmp, final+".bad"); rerr == nil {
		ckptQuarantined.Add(1)
	} else {
		os.Remove(tmp)
	}
	return err
}

// ckptFile is the handle writeFileSync writes through.
type ckptFile interface {
	io.Writer
	Sync() error
	Close() error
}

// openCkptFile creates the temp file a save writes to. A package variable
// so tests can inject storage failures (ENOSPC, short writes) into the
// exact path a full device would fail on.
var openCkptFile = func(path string) (ckptFile, error) {
	return os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
}

// writeFileSync writes data to path and fsyncs it before closing, so the
// bytes are durable before the caller renames the file into place. A write
// accepted short (a full device that lies) is surfaced as io.ErrShortWrite.
func writeFileSync(path string, data []byte) error {
	f, err := openCkptFile(path)
	if err != nil {
		return err
	}
	n, err := f.Write(data)
	if err == nil && n < len(data) {
		err = io.ErrShortWrite
	}
	return syncClose(f, err)
}

// syncDir fsyncs a directory so a just-renamed file's directory entry is
// durable before Save reports success.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	return syncClose(d, nil)
}

// syncClose fsyncs f unless err is already set, closes it, and returns the
// first error.
func syncClose(f ckptFile, err error) error {
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Position identifies a checkpoint set: the world size that wrote it and
// the (stratum, iteration) coordinate it captured.
type Position struct {
	Ranks   int
	Stratum int
	Iter    int
}

func (cp Checkpoint) position() Position {
	return Position{Ranks: cp.Ranks, Stratum: cp.Stratum, Iter: cp.Iter}
}

// agreeOutcome makes a local restore error collective: if any rank failed,
// every rank returns an error instead of sailing into the next collective
// without its peers.
func agreeOutcome(comm *mpi.Comm, local error) error {
	bad := uint64(0)
	if local != nil {
		bad = 1
	}
	if comm.Allreduce(bad, mpi.OpMax) == 0 || local != nil {
		return local
	}
	return errors.New("ra: a peer rank failed restoring the checkpoint")
}

// AgreedPosition scans the sink for the newest valid complete checkpoint
// set and collectively verifies every rank of the current world observes
// the same position — one agreement per resume: the caller picks the stratum
// from the position and hands it to Fixpoint.Resume. ok=false with a nil
// error means no valid checkpoint exists anywhere. Collective.
//
// Each rank contributes its position as one word. World size rides along,
// so every rank makes the same accept/reject/remap decision even from
// tampered-with sinks. A mismatch — heterogeneous snapshots, or one rank's
// sink failing — is an error on every rank, because ranks restarting from
// different positions would silently diverge.
func AgreedPosition(comm *mpi.Comm, sink CheckpointSink) (Position, bool, error) {
	const (
		none   = uint64(math.MaxUint64) // this rank sees no checkpoint
		failed = none - 1               // this rank's sink failed to read
	)
	p, ok, err := sink.LatestValid()
	word, what := none, "no checkpoint"
	switch {
	case err != nil:
		word = failed // poison the agreement so peers error rather than diverge
	case ok:
		word = uint64(p.Ranks)<<48 | uint64(p.Stratum)<<32 | uint64(p.Iter)
		what = fmt.Sprintf("position %#x", word)
	}
	lo := comm.Allreduce(word, mpi.OpMin)
	hi := comm.Allreduce(word, mpi.OpMax)
	switch {
	case err != nil:
		return Position{}, false, err
	case hi == failed || (hi == none && lo != none):
		// failed and none sort above every real position, so hi carries
		// them: a rank whose sink read failed, or one seeing no checkpoint
		// while others do (a torn set).
		return Position{}, false, fmt.Errorf(
			"ra: checkpoint unreadable or missing on some rank (rank %d reads %s)", comm.Rank(), what)
	case lo != hi:
		return Position{}, false, fmt.Errorf(
			"ra: checkpoint mismatch across ranks: positions range from %#x to %#x (rank %d has %#x)",
			lo, hi, comm.Rank(), word)
	}
	return p, ok, nil
}

// PeekRejoin reads rank's newest valid checkpoint without any collective
// agreement: the hot-replacement entry point. A replacement process must
// seed its transport's frame counters from the checkpoint's wire marks
// BEFORE the transport (and hence any collective) exists, so the read is
// strictly rank-local; the survivors' retained state, not an agreement
// protocol, guarantees the generation is the one the gang checkpointed.
// ok=false with a nil error means the rank holds no valid checkpoint.
func PeekRejoin(sink CheckpointSink, rank int) (Checkpoint, bool, error) {
	cp, ok, err := sink.Latest(rank)
	if err != nil || !ok {
		return Checkpoint{}, false, err
	}
	if len(cp.SendSeqs) != cp.Ranks || len(cp.RecvSeqs) != cp.Ranks {
		return Checkpoint{}, false, fmt.Errorf(
			"ra: rank %d's checkpoint carries no wire marks (saved without hot replacement enabled)", rank)
	}
	return cp, true, nil
}

// loadShards reads, for each listed rank of the world that wrote the
// checkpoint set at pos, that rank's validated payload. It is rank-local and
// reports errors locally — a rank missing from the set is a torn set, whether
// it was never written or vanished after the agreement — so callers must
// funnel the outcome through a collective agreement before the next
// collective op.
func loadShards(sink CheckpointSink, pos Position, origins []int) ([]relation.Shard, error) {
	shards := make([]relation.Shard, len(origins))
	for i, r := range origins {
		cp, ok, err := sink.Load(r, pos)
		if err != nil {
			return nil, fmt.Errorf("ra: reading original rank %d's checkpoint: %w", r, err)
		}
		if !ok {
			return nil, fmt.Errorf(
				"ra: original rank %d holds no valid checkpoint at (ranks %d, stratum %d, iter %d): torn checkpoint set",
				r, pos.Ranks, pos.Stratum, pos.Iter)
		}
		shards[i] = relation.Shard{Origin: r, Words: cp.Words}
	}
	return shards, nil
}
