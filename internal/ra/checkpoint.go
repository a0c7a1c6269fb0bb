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
	"sync"
	"sync/atomic"

	"paralagg/internal/mpi"
	"paralagg/internal/relation"
)

// Checkpoint/restart for the fixpoint. Every K iterations each rank
// snapshots the stratum's relations (FULL and Δ trees, accumulator,
// sub-bucket map, changed counts) through a pluggable sink; after a rank
// failure a fresh world reloads the latest agreed snapshot and re-runs to
// the identical fixpoint. The snapshot is rank-local (shards never cross
// the wire to checkpoint), so checkpointing adds no communication — only
// the serialization cost metered as metrics.PhaseCheckpoint.
//
// Sinks retain the last Keep generations per rank and validate every
// checkpoint they read: a corrupt newest generation is quarantined (renamed
// aside, or dropped for the memory sink) and recovery degrades by one
// generation instead of bricking. LatestValid is the recovery entry point —
// it names the newest generation for which EVERY rank of the writing world
// holds a checkpoint that passes validation.

// Checkpoint is one rank's saved fixpoint position: the stratum and the
// number of completed iterations, plus the serialized relation shards.
type Checkpoint struct {
	Ranks   int // world size at save time; a resume into another size re-hashes the whole set
	Stratum int
	Iter    int // completed iterations; resume re-enters the loop here
	Words   []mpi.Word
	// SectionSums holds one ckptSum per length-prefixed relation section of
	// Words, written by the fixpoint's checkpoint pass. Sinks persist it as
	// the checkpoint's manifest and re-verify each section at load, so a
	// corrupt relation payload is named, not just detected. Empty means the
	// payload carries no section structure (whole-file validation only).
	SectionSums []uint64
	// SendSeqs and RecvSeqs are the per-peer wire frame counters captured at
	// the checkpoint-marks rendezvous (mpi.CheckpointMarks), len Ranks each.
	// They seed a hot-replacement transport so the replacement's frame
	// stream aligns with the incarnation it replaces. Empty on worlds not
	// running the replacement protocol; the on-disk format only grows the v3
	// header when they are present, so existing v2 files stay byte-stable.
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

// Tamperer is the chaos harness's hook for deterministic checkpoint
// corruption: flip stored bits of rank's newest generation WITHOUT
// updating its checksums, so the next validation must reject it. Both
// bundled sinks implement it.
type Tamperer interface {
	TamperNewest(rank int) bool
}

// ErrNoCheckpoint reports a Resume attempt with an empty sink.
var ErrNoCheckpoint = errors.New("ra: no checkpoint to resume from")

// ErrCheckpointStorage reports a checkpoint save the storage layer refused
// even after freeing space: the device is full, a write came up short, or
// the rename/fsync failed. The partial file has been quarantined aside as
// path+".bad"; callers degrade (fall back to an in-memory sink, keep the
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
// sink's Keep knob is unset.
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

// countCkptDegradation records one storage-degradation fallback (called by
// the fixpoint driver when it swaps in the memory sink).
func countCkptDegradation() { ckptDegradations.Add(1) }

// effectiveKeep applies DefaultCheckpointKeep to an unset knob.
func effectiveKeep(keep int) int {
	if keep < 1 {
		return DefaultCheckpointKeep
	}
	return keep
}

// ckptSum mixes payload words into a checksum so bit rot or a partially
// written file is rejected at load instead of silently restoring garbage.
// It is also the per-section manifest digest.
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

// MemoryCheckpointSink keeps checkpoint generations in process memory. It
// survives a world teardown (the crash/restart cycle the chaos harness
// exercises) but not a process restart — use FileCheckpointSink for that.
type MemoryCheckpointSink struct {
	mu   sync.Mutex
	keep int
	gens map[int][]memGen
}

// memGen is one retained in-memory generation: the checkpoint plus the
// save-time checksum validation recomputes against.
type memGen struct {
	cp  Checkpoint
	sum uint64
}

// NewMemoryCheckpointSink returns an empty in-memory sink retaining
// DefaultCheckpointKeep generations per rank.
func NewMemoryCheckpointSink() *MemoryCheckpointSink {
	return NewMemoryCheckpointSinkKeep(0)
}

// NewMemoryCheckpointSinkKeep returns an empty in-memory sink retaining
// keep generations per rank (< 1 means DefaultCheckpointKeep).
func NewMemoryCheckpointSinkKeep(keep int) *MemoryCheckpointSink {
	return &MemoryCheckpointSink{keep: effectiveKeep(keep), gens: map[int][]memGen{}}
}

// Save implements CheckpointSink.
func (s *MemoryCheckpointSink) Save(rank int, cp Checkpoint) error {
	cp.Words = append([]mpi.Word(nil), cp.Words...)
	cp.SectionSums = append([]uint64(nil), cp.SectionSums...)
	cp.SendSeqs = append([]uint64(nil), cp.SendSeqs...)
	cp.RecvSeqs = append([]uint64(nil), cp.RecvSeqs...)
	g := memGen{cp: cp, sum: ckptSum(cp.Words)}
	s.mu.Lock()
	gens := append(s.gens[rank], g)
	if over := len(gens) - s.keep; over > 0 {
		gens = append([]memGen(nil), gens[over:]...)
	}
	s.gens[rank] = gens
	s.mu.Unlock()
	return nil
}

// validAt re-validates generation i of rank under the lock, quarantining
// (dropping) it when its stored words no longer match the save-time
// checksum — the memory analogue of renaming a corrupt file aside.
func (s *MemoryCheckpointSink) validAt(rank, i int) bool {
	g := s.gens[rank][i]
	if ckptSum(g.cp.Words) == g.sum && verifySections(g.cp.Words, g.cp.SectionSums) == nil {
		return true
	}
	ckptValidationFailures.Add(1)
	ckptQuarantined.Add(1)
	s.gens[rank] = append(s.gens[rank][:i:i], s.gens[rank][i+1:]...)
	return false
}

// copyAt returns a caller-owned copy of generation i under the lock.
func (s *MemoryCheckpointSink) copyAt(rank, i int) Checkpoint {
	cp := s.gens[rank][i].cp
	cp.Words = append([]mpi.Word(nil), cp.Words...)
	cp.SectionSums = append([]uint64(nil), cp.SectionSums...)
	cp.SendSeqs = append([]uint64(nil), cp.SendSeqs...)
	cp.RecvSeqs = append([]uint64(nil), cp.RecvSeqs...)
	return cp
}

// Latest implements CheckpointSink.
func (s *MemoryCheckpointSink) Latest(rank int) (Checkpoint, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := len(s.gens[rank]) - 1; i >= 0; i-- {
		if s.validAt(rank, i) {
			return s.copyAt(rank, i), true, nil
		}
	}
	return Checkpoint{}, false, nil
}

// LatestValid implements CheckpointSink.
func (s *MemoryCheckpointSink) LatestValid() (Position, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := len(s.gens[0]) - 1; i >= 0; i-- {
		if !s.validAt(0, i) {
			continue
		}
		cp := s.gens[0][i].cp
		pos := Position{Ranks: cp.Ranks, Stratum: cp.Stratum, Iter: cp.Iter}
		complete := true
		for r := 1; r < pos.Ranks; r++ {
			if _, ok := s.loadLocked(r, pos); !ok {
				complete = false
				break
			}
		}
		if complete {
			return pos, true, nil
		}
	}
	return Position{}, false, nil
}

// loadLocked finds rank's newest valid generation matching pos.
func (s *MemoryCheckpointSink) loadLocked(rank int, pos Position) (int, bool) {
	for i := len(s.gens[rank]) - 1; i >= 0; i-- {
		if !pos.Matches(s.gens[rank][i].cp) {
			continue
		}
		if s.validAt(rank, i) {
			return i, true
		}
		// validAt dropped entry i; indexes above it shifted down by one,
		// but those were already visited, so continue from i-1 unharmed.
	}
	return 0, false
}

// Load implements CheckpointSink.
func (s *MemoryCheckpointSink) Load(rank int, pos Position) (Checkpoint, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if i, ok := s.loadLocked(rank, pos); ok {
		return s.copyAt(rank, i), true, nil
	}
	return Checkpoint{}, false, nil
}

// TamperNewest implements Tamperer: it flips one payload word of rank's
// newest stored generation without touching the save-time checksum, so the
// next validation quarantines it.
func (s *MemoryCheckpointSink) TamperNewest(rank int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	gens := s.gens[rank]
	if len(gens) == 0 {
		return false
	}
	w := gens[len(gens)-1].cp.Words
	if len(w) == 0 {
		return false
	}
	w[len(w)/2] ^= 1 << 17
	return true
}

// FileCheckpointSink persists checkpoint generations under Dir — one
// rank-%04d.gen-%06d.ckpt file per save, the last Keep generations per
// rank retained — surviving process restarts (the CLI's -resume flag).
// Saves write a temporary file, fsync it, rename it into place, and fsync
// the directory, so an interrupted save never clobbers a previous
// generation and a completed save survives power loss. Files written by
// the previous single-generation format (rank-%04d.ckpt) load as the
// oldest generation.
type FileCheckpointSink struct {
	Dir string
	// Keep bounds the retained generations per rank; < 1 means
	// DefaultCheckpointKeep.
	Keep int
}

const (
	ckptMagic     uint64 = 0x70614c43_6b707432 // "paLCkpt2": legacy single-generation format
	ckptMagicV2   uint64 = 0x70614c43_6b707433 // "paLCkpt3": versioned manifest format
	ckptMagicV3   uint64 = 0x70614c43_6b707434 // "paLCkpt4": manifest + wire-mark format
	ckptVersion   uint64 = 2
	ckptVersionV3 uint64 = 3
)

// ckptHeaderWords is the fixed prefix of a legacy checkpoint file: magic,
// world size, stratum, iteration, payload checksum, payload length.
const ckptHeaderWords = 6

// ckptV2HeaderWords is the fixed prefix of a v2 file: magic, format
// version, world size, stratum, iteration, section count. The manifest
// (one digest word per section), the payload length, the payload, and a
// trailing whole-file CRC32C word follow.
const ckptV2HeaderWords = 6

// legacyGen orders pre-versioning rank-%04d.ckpt files before every
// numbered generation.
const legacyGen = -1

func (s FileCheckpointSink) path(rank, gen int) string {
	if gen == legacyGen {
		return filepath.Join(s.Dir, fmt.Sprintf("rank-%04d.ckpt", rank))
	}
	return filepath.Join(s.Dir, fmt.Sprintf("rank-%04d.gen-%06d.ckpt", rank, gen))
}

// rankGens lists rank's on-disk generations sorted oldest-first (a legacy
// file, if present, sorts before every numbered generation). A missing
// directory is an empty sink, not an error.
func (s FileCheckpointSink) rankGens(rank int) ([]int, error) {
	ents, err := os.ReadDir(s.Dir)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var gens []int
	for _, e := range ents {
		if e.Name() == filepath.Base(s.path(rank, legacyGen)) {
			gens = append(gens, legacyGen)
			continue
		}
		var r, g int
		if n, _ := fmt.Sscanf(e.Name(), "rank-%d.gen-%d.ckpt", &r, &g); n == 2 &&
			r == rank && g >= 0 && e.Name() == filepath.Base(s.path(rank, g)) {
			gens = append(gens, g)
		}
	}
	sort.Ints(gens)
	return gens, nil
}

// encodeCkpt renders cp in the v2 format — header, manifest, payload, and a
// trailing CRC32C over every preceding byte — or, when wire marks are
// present, the v3 format that inserts a marks block (count word, SendSeqs,
// RecvSeqs) between the header and the manifest. Mark-free checkpoints stay
// byte-identical to what every earlier build wrote.
func encodeCkpt(cp Checkpoint) []byte {
	ns := len(cp.SectionSums)
	nm := len(cp.SendSeqs)
	magic, version, marksWords := ckptMagicV2, ckptVersion, 0
	if nm > 0 {
		magic, version, marksWords = ckptMagicV3, ckptVersionV3, 1+2*nm
	}
	buf := make([]byte, 8*(ckptV2HeaderWords+marksWords+ns+1+len(cp.Words)+1))
	binary.LittleEndian.PutUint64(buf[0:], magic)
	binary.LittleEndian.PutUint64(buf[8:], version)
	binary.LittleEndian.PutUint64(buf[16:], uint64(cp.Ranks))
	binary.LittleEndian.PutUint64(buf[24:], uint64(cp.Stratum))
	binary.LittleEndian.PutUint64(buf[32:], uint64(cp.Iter))
	binary.LittleEndian.PutUint64(buf[40:], uint64(ns))
	off := 8 * ckptV2HeaderWords
	if nm > 0 {
		binary.LittleEndian.PutUint64(buf[off:], uint64(nm))
		off += 8
		for _, v := range cp.SendSeqs {
			binary.LittleEndian.PutUint64(buf[off:], v)
			off += 8
		}
		for _, v := range cp.RecvSeqs {
			binary.LittleEndian.PutUint64(buf[off:], v)
			off += 8
		}
	}
	for _, sum := range cp.SectionSums {
		binary.LittleEndian.PutUint64(buf[off:], sum)
		off += 8
	}
	binary.LittleEndian.PutUint64(buf[off:], uint64(len(cp.Words)))
	off += 8
	for _, w := range cp.Words {
		binary.LittleEndian.PutUint64(buf[off:], uint64(w))
		off += 8
	}
	binary.LittleEndian.PutUint64(buf[off:], uint64(mpi.CRC32C(buf[:off])))
	return buf
}

// decodeCkpt parses and fully validates a checkpoint file of either
// format. Every error return means the file is corrupt or foreign.
func decodeCkpt(path string, buf []byte) (Checkpoint, error) {
	if len(buf) < 8 || len(buf)%8 != 0 {
		return Checkpoint{}, fmt.Errorf("ra: %s is not a checkpoint file", path)
	}
	wantVersion := ckptVersion
	switch binary.LittleEndian.Uint64(buf) {
	case ckptMagic:
		return decodeLegacyCkpt(path, buf)
	case ckptMagicV2:
	case ckptMagicV3:
		wantVersion = ckptVersionV3
	default:
		return Checkpoint{}, fmt.Errorf("ra: %s is not a checkpoint file", path)
	}
	if len(buf) < 8*(ckptV2HeaderWords+2) {
		return Checkpoint{}, fmt.Errorf("ra: %s truncated inside the header", path)
	}
	if v := binary.LittleEndian.Uint64(buf[8:]); v != wantVersion {
		return Checkpoint{}, fmt.Errorf("ra: %s has checkpoint format version %d, this build reads %d", path, v, wantVersion)
	}
	cp := Checkpoint{
		Ranks:   int(binary.LittleEndian.Uint64(buf[16:])),
		Stratum: int(binary.LittleEndian.Uint64(buf[24:])),
		Iter:    int(binary.LittleEndian.Uint64(buf[32:])),
	}
	ns := int(binary.LittleEndian.Uint64(buf[40:]))
	off := 8 * ckptV2HeaderWords
	// Every declared count is compared, in words, with what is left of the
	// file: multiplying an unchecked count up to bytes could wrap around.
	left := func() int { return (len(buf) - off) / 8 }
	if wantVersion == ckptVersionV3 {
		if left() < 2 {
			return Checkpoint{}, fmt.Errorf("ra: %s truncated inside the marks block", path)
		}
		nm := int(binary.LittleEndian.Uint64(buf[off:]))
		off += 8
		if nm <= 0 || nm > (left()-1)/2 {
			return Checkpoint{}, fmt.Errorf("ra: %s truncated inside the marks block (%d marks declared)", path, nm)
		}
		cp.SendSeqs = make([]uint64, nm)
		cp.RecvSeqs = make([]uint64, nm)
		for i := range cp.SendSeqs {
			cp.SendSeqs[i] = binary.LittleEndian.Uint64(buf[off:])
			off += 8
		}
		for i := range cp.RecvSeqs {
			cp.RecvSeqs[i] = binary.LittleEndian.Uint64(buf[off:])
			off += 8
		}
	}
	if ns < 0 || ns > left()-1 {
		return Checkpoint{}, fmt.Errorf("ra: %s truncated inside the manifest (%d sections declared)", path, ns)
	}
	if ns > 0 {
		cp.SectionSums = make([]uint64, ns)
		for i := range cp.SectionSums {
			cp.SectionSums[i] = binary.LittleEndian.Uint64(buf[off:])
			off += 8
		}
	}
	n := int(binary.LittleEndian.Uint64(buf[off:]))
	off += 8
	if n < 0 || n != left()-1 {
		return Checkpoint{}, fmt.Errorf("ra: %s truncated: %d payload words declared, %d bytes present", path, n, len(buf))
	}
	cp.Words = make([]mpi.Word, n)
	for i := range cp.Words {
		cp.Words[i] = binary.LittleEndian.Uint64(buf[off:])
		off += 8
	}
	want := uint32(binary.LittleEndian.Uint64(buf[off:]))
	if got := mpi.CRC32C(buf[:off]); got != want {
		return Checkpoint{}, fmt.Errorf("ra: %s corrupt: file CRC %#x, trailer says %#x", path, got, want)
	}
	if err := verifySections(cp.Words, cp.SectionSums); err != nil {
		return Checkpoint{}, fmt.Errorf("ra: %s corrupt: %v", path, err)
	}
	return cp, nil
}

// decodeLegacyCkpt parses the pre-versioning single-generation format.
func decodeLegacyCkpt(path string, buf []byte) (Checkpoint, error) {
	if len(buf) < 8*ckptHeaderWords {
		return Checkpoint{}, fmt.Errorf("ra: %s is not a checkpoint file", path)
	}
	cp := Checkpoint{
		Ranks:   int(binary.LittleEndian.Uint64(buf[8:])),
		Stratum: int(binary.LittleEndian.Uint64(buf[16:])),
		Iter:    int(binary.LittleEndian.Uint64(buf[24:])),
	}
	sum := binary.LittleEndian.Uint64(buf[32:])
	n := int(binary.LittleEndian.Uint64(buf[40:]))
	if n != len(buf)/8-ckptHeaderWords {
		return Checkpoint{}, fmt.Errorf("ra: %s truncated: %d words declared, %d bytes present", path, n, len(buf))
	}
	cp.Words = make([]mpi.Word, n)
	for i := range cp.Words {
		cp.Words[i] = binary.LittleEndian.Uint64(buf[8*(ckptHeaderWords+i):])
	}
	if got := ckptSum(cp.Words); got != sum {
		return Checkpoint{}, fmt.Errorf("ra: %s corrupt: payload checksum %#x, header says %#x", path, got, sum)
	}
	return cp, nil
}

// loadGen reads and validates one generation. A fs.ErrNotExist return
// means the file vanished under a concurrent prune or quarantine — the
// caller skips it without counting a validation failure.
func (s FileCheckpointSink) loadGen(rank, gen int) (Checkpoint, error) {
	path := s.path(rank, gen)
	buf, err := os.ReadFile(path)
	if err != nil {
		return Checkpoint{}, err
	}
	return decodeCkpt(path, buf)
}

// quarantine renames a corrupt generation aside (path + ".bad") so it is
// never retried, preserving the bytes for inspection. Concurrent scans may
// race to the rename; only the winner counts the quarantine.
func (s FileCheckpointSink) quarantine(rank, gen int) {
	ckptValidationFailures.Add(1)
	p := s.path(rank, gen)
	if err := os.Rename(p, p+".bad"); err == nil {
		ckptQuarantined.Add(1)
	}
}

// Save implements CheckpointSink: encode, write a temp file, fsync it,
// rename it into the next generation slot, fsync the directory, and prune
// generations beyond Keep. A storage failure (ENOSPC, short write, IO
// error) quarantines the partial file, frees space by pruning old
// generations down to the newest, and retries once; a second failure
// surfaces as *ErrCheckpointStorage so the caller can degrade instead of
// aborting the run.
func (s FileCheckpointSink) Save(rank int, cp Checkpoint) error {
	if err := os.MkdirAll(s.Dir, 0o755); err != nil {
		return &ErrCheckpointStorage{Path: s.Dir, Cause: err}
	}
	gens, err := s.rankGens(rank)
	if err != nil {
		return err
	}
	gen := 1
	if len(gens) > 0 && gens[len(gens)-1] >= 1 {
		gen = gens[len(gens)-1] + 1
	}
	final := s.path(rank, gen)
	data := encodeCkpt(cp)
	werr := s.writeGen(final, data)
	if werr == nil {
		return s.pruneGens(rank, gens, effectiveKeep(s.Keep)-1)
	}
	s.pruneGens(rank, gens, 1) // free space: keep only the newest old generation
	if s.writeGen(final, data) == nil {
		return nil
	}
	return &ErrCheckpointStorage{Path: final, Cause: werr}
}

// writeGen writes one generation durably: temp file, fsync, rename into
// place, fsync the directory. On failure the partial file is quarantined to
// final+".bad" (never left where a scan could mistake it for a checkpoint),
// or removed if even the rename fails.
func (s FileCheckpointSink) writeGen(final string, data []byte) error {
	tmp := final + ".tmp"
	err := writeFileSync(tmp, data)
	if err == nil {
		if err = os.Rename(tmp, final); err == nil {
			if err = syncDir(s.Dir); err == nil {
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

// pruneGens removes rank's oldest on-disk generations so at most keepN of
// the listed ones remain. Already-vanished files are fine (a concurrent
// scan may have quarantined them). Quarantine files (.bad) older than the
// oldest retained generation are removed too: a quarantined generation no
// longer appears in gens, so without this sweep its .bad husk would escape
// keep-K retention and accumulate forever in long supervised runs.
func (s FileCheckpointSink) pruneGens(rank int, gens []int, keepN int) error {
	over := len(gens) - keepN
	if over > 0 {
		for _, g := range gens[:over] {
			if err := os.Remove(s.path(rank, g)); err != nil && !errors.Is(err, fs.ErrNotExist) {
				return err
			}
		}
	}
	if len(gens) > 0 {
		floor := gens[0]
		if over > 0 {
			floor = gens[over]
		}
		s.pruneBad(rank, floor)
	}
	return nil
}

// pruneBad removes rank's quarantined generation files (.bad) older than
// floor, the oldest generation retention still keeps. Newer quarantines are
// preserved for inspection exactly as long as a healthy sibling would be.
func (s FileCheckpointSink) pruneBad(rank, floor int) {
	ents, err := os.ReadDir(s.Dir)
	if err != nil {
		return
	}
	for _, e := range ents {
		var r, g int
		if n, _ := fmt.Sscanf(e.Name(), "rank-%d.gen-%d.ckpt.bad", &r, &g); n == 2 &&
			r == rank && g >= 0 && g < floor &&
			e.Name() == filepath.Base(s.path(rank, g))+".bad" {
			os.Remove(filepath.Join(s.Dir, e.Name()))
		}
	}
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
	if err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// syncDir fsyncs a directory so a just-renamed file's directory entry is
// durable before Save reports success.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// Latest implements CheckpointSink: newest-first over rank's generations,
// quarantining corrupt ones, returning the first that validates.
func (s FileCheckpointSink) Latest(rank int) (Checkpoint, bool, error) {
	gens, err := s.rankGens(rank)
	if err != nil {
		return Checkpoint{}, false, err
	}
	for i := len(gens) - 1; i >= 0; i-- {
		cp, err := s.loadGen(rank, gens[i])
		if errors.Is(err, fs.ErrNotExist) {
			continue
		}
		if err != nil {
			s.quarantine(rank, gens[i])
			continue
		}
		return cp, true, nil
	}
	return Checkpoint{}, false, nil
}

// LatestValid implements CheckpointSink. Rank 0 belongs to every world, so
// its generations enumerate the candidate positions; each candidate is
// accepted only when every rank of the writing world holds a validating
// checkpoint at it.
func (s FileCheckpointSink) LatestValid() (Position, bool, error) {
	gens, err := s.rankGens(0)
	if err != nil {
		return Position{}, false, err
	}
	for i := len(gens) - 1; i >= 0; i-- {
		cp, err := s.loadGen(0, gens[i])
		if errors.Is(err, fs.ErrNotExist) {
			continue
		}
		if err != nil {
			s.quarantine(0, gens[i])
			continue
		}
		pos := Position{Ranks: cp.Ranks, Stratum: cp.Stratum, Iter: cp.Iter}
		complete := true
		for r := 1; r < pos.Ranks; r++ {
			if _, ok, err := s.Load(r, pos); err != nil || !ok {
				complete = false
				break
			}
		}
		if complete {
			return pos, true, nil
		}
	}
	return Position{}, false, nil
}

// Load implements CheckpointSink: newest-first over rank's generations,
// quarantining corrupt ones, returning the first valid checkpoint at pos.
func (s FileCheckpointSink) Load(rank int, pos Position) (Checkpoint, bool, error) {
	gens, err := s.rankGens(rank)
	if err != nil {
		return Checkpoint{}, false, err
	}
	for i := len(gens) - 1; i >= 0; i-- {
		cp, err := s.loadGen(rank, gens[i])
		if errors.Is(err, fs.ErrNotExist) {
			continue
		}
		if err != nil {
			s.quarantine(rank, gens[i])
			continue
		}
		if pos.Matches(cp) {
			return cp, true, nil
		}
	}
	return Checkpoint{}, false, nil
}

// TamperNewest implements Tamperer: flip one byte of the final payload
// word of rank's newest on-disk generation, in place and without updating
// any checksum, so validation must reject it. (The very last word is the
// v2 CRC trailer whose upper bytes are zero padding; the word before it is
// always covered by a checksum in both formats.)
func (s FileCheckpointSink) TamperNewest(rank int) bool {
	gens, err := s.rankGens(rank)
	if err != nil || len(gens) == 0 {
		return false
	}
	p := s.path(rank, gens[len(gens)-1])
	buf, err := os.ReadFile(p)
	if err != nil || len(buf) < 16 {
		return false
	}
	buf[len(buf)-9] ^= 0x40
	return os.WriteFile(p, buf, 0o644) == nil
}

// Remove deletes every generation, temp, and quarantine file of rank (used
// by the CLI to clear stale state after a completed run).
func (s FileCheckpointSink) Remove(rank int) error {
	ents, err := os.ReadDir(s.Dir)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	prefix := fmt.Sprintf("rank-%04d.", rank)
	for _, e := range ents {
		if len(e.Name()) < len(prefix) || e.Name()[:len(prefix)] != prefix {
			continue
		}
		err := os.Remove(filepath.Join(s.Dir, e.Name()))
		if err != nil && !errors.Is(err, fs.ErrNotExist) && err != io.EOF {
			return err
		}
	}
	return nil
}

// Sentinel position words for the collective checkpoint agreement.
const (
	posNone = uint64(math.MaxUint64)     // this rank sees no checkpoint
	posErr  = uint64(math.MaxUint64) - 1 // this rank's sink failed to read
)

// posWord packs a checkpoint's coordinate into one agreement word. World
// size rides along so every rank makes the same accept/reject/remap
// decision even from tampered-with sinks.
func posWord(ranks, stratum, iter int) uint64 {
	return uint64(ranks)<<48 | uint64(stratum)<<32 | uint64(iter)
}

// Position identifies a checkpoint set: the world size that wrote it and
// the (stratum, iteration) coordinate it captured.
type Position struct {
	Ranks   int
	Stratum int
	Iter    int
}

// Matches reports whether a checkpoint belongs to the position.
func (p Position) Matches(cp Checkpoint) bool {
	return cp.Ranks == p.Ranks && cp.Stratum == p.Stratum && cp.Iter == p.Iter
}

// agree collectively verifies that every rank computed the same position
// word, returning the unanimous word. A mismatch — heterogeneous snapshots,
// or one rank's sink failing — is an error on every rank, because ranks
// restarting from different positions would silently diverge.
func agree(comm *mpi.Comm, pos uint64) (uint64, error) {
	lo := comm.Allreduce(pos, mpi.OpMin)
	hi := comm.Allreduce(pos, mpi.OpMax)
	if hi == posErr || (hi == posNone && lo != posNone) {
		// posErr and posNone sort above every real position, so hi carries
		// them: a rank whose sink read failed, or one seeing no checkpoint
		// while others do (a torn set).
		return 0, fmt.Errorf(
			"ra: checkpoint unreadable or missing on some rank (rank %d reads %s)",
			comm.Rank(), describePos(pos))
	}
	if lo != hi {
		return 0, fmt.Errorf(
			"ra: checkpoint mismatch across ranks: positions range from %#x to %#x (rank %d has %#x)",
			lo, hi, comm.Rank(), pos)
	}
	return lo, nil
}

// describePos renders an agreement word for error messages.
func describePos(pos uint64) string {
	switch pos {
	case posErr:
		return "a corrupt or unreadable checkpoint"
	case posNone:
		return "no checkpoint"
	default:
		return fmt.Sprintf("position %#x", pos)
	}
}

// agreeOutcome makes a local restore error collective: if any rank failed,
// every rank returns an error instead of sailing into the next collective
// without its peers.
func agreeOutcome(comm *mpi.Comm, local error) error {
	bad := uint64(0)
	if local != nil {
		bad = 1
	}
	if comm.Allreduce(bad, mpi.OpMax) == 0 {
		return nil
	}
	if local != nil {
		return local
	}
	return errors.New("ra: a peer rank failed restoring the checkpoint")
}

// AgreedPosition scans the sink for the newest valid complete checkpoint
// set and collectively verifies every rank of the current world observes
// the same position — one agreement per resume: the caller picks the stratum
// from the position and hands it to Fixpoint.Resume. ok=false with a nil
// error means no valid checkpoint exists anywhere. Collective.
func AgreedPosition(comm *mpi.Comm, sink CheckpointSink) (Position, bool, error) {
	p, ok, err := sink.LatestValid()
	pos := posNone
	switch {
	case err != nil:
		pos = posErr // poison the agreement so peers error rather than diverge
	case ok:
		pos = posWord(p.Ranks, p.Stratum, p.Iter)
	}
	agreed, aerr := agree(comm, pos)
	if err != nil {
		return Position{}, false, err
	}
	if aerr != nil {
		return Position{}, false, aerr
	}
	if agreed == posNone {
		return Position{}, false, nil
	}
	return p, true, nil
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
