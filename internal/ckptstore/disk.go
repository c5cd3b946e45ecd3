package ckptstore

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"acr/internal/checksum"
	"acr/internal/model"
)

// Disk is the disk-backed tier: checkpoint payloads go to files, while
// the chunk metadata (root + per-chunk sums) stays resident so Compare
// never touches the disk — the two-phase compare needs only sums. This is
// the classic second level of a multilevel scheme (node-local SSD or PFS
// behind the in-memory buddy tier); the optional cost model accounts the
// §1 bandwidth wall: every payload write adds bytes/AggregateBandwidth of
// modeled PFS time, so experiments can report what the same checkpoint
// stream would have cost on a parallel file system.
type Disk struct {
	dir    string
	ownDir bool
	cost   *model.DiskSystem

	mu    sync.RWMutex
	index map[Key]*diskEntry
	ctrs  *counters

	modeledNanos int64 // guarded by mu
}

type diskEntry struct {
	path      string
	size      int
	chunkSize int
	root      uint64
	sums      []uint64
}

// NewDisk returns a disk store rooted at dir; an empty dir creates a
// private temp directory that Close removes. cost, if non-nil, accrues
// modeled parallel-file-system write time per model.DiskSystem.
//
// Opening a directory that already holds checkpoint files rebuilds the
// resident index from them, so a restarted process (the acrd daemon after
// kill -9) sees exactly what survived on disk — the store's ground truth,
// independent of any journal's claims. Files with unparsable names or
// malformed headers are skipped, not fatal; payload corruption is still
// caught by Get's root re-verification.
func NewDisk(dir string, cost *model.DiskSystem) (*Disk, error) {
	ownDir := false
	if dir == "" {
		d, err := os.MkdirTemp("", "ckptstore-*")
		if err != nil {
			return nil, fmt.Errorf("ckptstore: disk tier: %w", err)
		}
		dir, ownDir = d, true
	} else if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("ckptstore: disk tier: %w", err)
	}
	s := &Disk{
		dir:    dir,
		ownDir: ownDir,
		cost:   cost,
		index:  make(map[Key]*diskEntry),
		ctrs:   newCounters(),
	}
	if !ownDir {
		if err := s.loadIndex(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// loadIndex rebuilds the resident index from the checkpoint files already
// in the backing directory.
func (s *Disk) loadIndex() error {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("ckptstore: disk tier: %w", err)
	}
	for _, de := range entries {
		if de.IsDir() {
			continue
		}
		var k Key
		if n, err := fmt.Sscanf(de.Name(), "r%d_n%d_t%d_e%d.ckpt", &k.Replica, &k.Node, &k.Task, &k.Epoch); n != 4 || err != nil {
			continue
		}
		path := filepath.Join(s.dir, de.Name())
		e, err := readDiskHeader(path)
		if err != nil {
			continue // malformed header: not a restorable checkpoint
		}
		e.path = path
		s.index[k] = e
	}
	return nil
}

// readDiskHeader parses a checkpoint file's header (magic, chunk size,
// root, per-chunk sums) and derives the payload size from the file size.
func readDiskHeader(path string) (*diskEntry, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	fixed := make([]byte, len(diskMagic)+24)
	if _, err := io.ReadFull(f, fixed); err != nil {
		return nil, err
	}
	if string(fixed[:len(diskMagic)]) != diskMagic {
		return nil, fmt.Errorf("ckptstore: %s: bad magic", path)
	}
	chunkSize := binary.LittleEndian.Uint64(fixed[len(diskMagic):])
	root := binary.LittleEndian.Uint64(fixed[len(diskMagic)+8:])
	nsums := binary.LittleEndian.Uint64(fixed[len(diskMagic)+16:])
	header := int64(len(diskMagic)) + 24 + 8*int64(nsums)
	if nsums > 1<<32 || fi.Size() < header {
		return nil, fmt.Errorf("ckptstore: %s: truncated header", path)
	}
	raw := make([]byte, 8*nsums)
	if _, err := io.ReadFull(f, raw); err != nil {
		return nil, err
	}
	sums := make([]uint64, nsums)
	for i := range sums {
		sums[i] = binary.LittleEndian.Uint64(raw[8*i:])
	}
	return &diskEntry{
		size:      int(fi.Size() - header),
		chunkSize: int(chunkSize),
		root:      root,
		sums:      sums,
	}, nil
}

// Name implements Store.
func (s *Disk) Name() string { return "disk" }

// Close removes the backing directory when the store created it.
func (s *Disk) Close() error {
	if s.ownDir {
		return os.RemoveAll(s.dir)
	}
	return nil
}

// ModeledWriteTime returns the cumulative modeled PFS write time accrued
// by Put under the configured cost model (zero without one).
func (s *Disk) ModeledWriteTime() time.Duration {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return time.Duration(s.modeledNanos)
}

func (s *Disk) fileFor(k Key) string {
	return filepath.Join(s.dir, fmt.Sprintf("r%d_n%d_t%d_e%d.ckpt", k.Replica, k.Node, k.Task, k.Epoch))
}

// diskMagic guards the file format: "ACRCKPT1".
const diskMagic = "ACRCKPT1"

// Put implements Store: the payload is written to one file per key with a
// small header (magic, chunk size, sums) so a restart can re-verify the
// chunk structure without rehashing. The header and then the payload go
// straight to the file; the payload is not staged through a copy.
func (s *Disk) Put(k Key, ck *Checkpoint) error {
	header := make([]byte, 0, len(diskMagic)+8+8+8+8*len(ck.Sums))
	header = append(header, diskMagic...)
	header = binary.LittleEndian.AppendUint64(header, uint64(ck.ChunkSize))
	header = binary.LittleEndian.AppendUint64(header, ck.Root)
	header = binary.LittleEndian.AppendUint64(header, uint64(len(ck.Sums)))
	for _, sum := range ck.Sums {
		header = binary.LittleEndian.AppendUint64(header, sum)
	}
	path := s.fileFor(k)
	if err := writeFile(path, header, ck.Bytes()); err != nil {
		return fmt.Errorf("ckptstore: disk put %v: %w", k, err)
	}
	entry := &diskEntry{
		path:      path,
		size:      ck.Len(),
		chunkSize: ck.ChunkSize,
		root:      ck.Root,
		sums:      append([]uint64(nil), ck.Sums...),
	}
	s.mu.Lock()
	s.index[k] = entry
	if s.cost != nil {
		if secs, err := s.cost.WriteSeconds(float64(ck.Len())); err == nil {
			s.modeledNanos += int64(secs * float64(time.Second))
		}
	}
	s.mu.Unlock()
	s.ctrs.puts.Add(1)
	s.ctrs.bytesWritten.Add(int64(ck.Len()))
	s.ctrs.chunksStored.Add(int64(ck.NumChunks()))
	return nil
}

// writeFile is os.WriteFile of the concatenation of parts, without
// building it.
func writeFile(path string, parts ...[]byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	for _, p := range parts {
		if _, err = f.Write(p); err != nil {
			break
		}
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func (s *Disk) entry(k Key) (*diskEntry, error) {
	s.mu.RLock()
	e, ok := s.index[k]
	s.mu.RUnlock()
	if !ok {
		return nil, ErrNotFound
	}
	return e, nil
}

// Get implements Store. The payload is read back from the file and its
// root re-verified against the resident metadata, so corruption at rest
// is detected at restart time instead of silently restoring bad state.
func (s *Disk) Get(k Key) (*Checkpoint, error) {
	e, err := s.entry(k)
	if err != nil {
		return nil, err
	}
	raw, err := os.ReadFile(e.path)
	if err != nil {
		return nil, fmt.Errorf("ckptstore: disk get %v: %w", k, err)
	}
	header := len(diskMagic) + 24 + 8*len(e.sums)
	if len(raw) < header || string(raw[:len(diskMagic)]) != diskMagic {
		return nil, fmt.Errorf("ckptstore: disk get %v: malformed checkpoint file", k)
	}
	data := raw[header:]
	if len(data) != e.size {
		return nil, fmt.Errorf("ckptstore: disk get %v: payload is %d bytes, want %d", k, len(data), e.size)
	}
	root, sums := checksum.Fletcher64Chunks(data, e.chunkSize, 0)
	if root != e.root {
		return nil, fmt.Errorf("disk get %v: %w (root %#x, want %#x)", k, ErrCorrupt, root, e.root)
	}
	s.ctrs.gets.Add(1)
	s.ctrs.bytesRead.Add(int64(len(data)))
	return &Checkpoint{ChunkSize: e.chunkSize, Root: e.root, Sums: sums, data: data}, nil
}

// CorruptAtRest flips one bit of the stored payload *in the backing file*,
// leaving the resident metadata untouched — the at-rest corruption a fault
// injector needs. byteIdx counts from the start of the payload; negative
// values count back from its end (-1 is the last byte). The next Get of k
// re-verifies the root and reports ErrCorrupt.
func (s *Disk) CorruptAtRest(k Key, byteIdx, bit int) error {
	e, err := s.entry(k)
	if err != nil {
		return err
	}
	raw, err := os.ReadFile(e.path)
	if err != nil {
		return fmt.Errorf("ckptstore: corrupt %v: %w", k, err)
	}
	header := len(diskMagic) + 24 + 8*len(e.sums)
	if len(raw) < header || len(raw)-header != e.size {
		return fmt.Errorf("ckptstore: corrupt %v: malformed checkpoint file", k)
	}
	if byteIdx < 0 {
		byteIdx += e.size
	}
	if byteIdx < 0 || byteIdx >= e.size {
		return fmt.Errorf("ckptstore: corrupt %v: byte %d out of range [0,%d)", k, byteIdx, e.size)
	}
	raw[header+byteIdx] ^= 1 << (uint(bit) & 7)
	if err := os.WriteFile(e.path, raw, 0o644); err != nil {
		return fmt.Errorf("ckptstore: corrupt %v: %w", k, err)
	}
	return nil
}

// Compare implements Store using only the resident metadata: no file IO.
func (s *Disk) Compare(a, b Key) (CompareResult, error) {
	meta := func(k Key) (*Checkpoint, error) {
		e, err := s.entry(k)
		if err != nil {
			return nil, err
		}
		// A metadata-only view: CompareCheckpoints touches ChunkSize,
		// Root, Sums, and Len, all known without the payload. The data
		// length is reconstructed from the chunk structure.
		return &Checkpoint{
			ChunkSize: e.chunkSize,
			Root:      e.root,
			Sums:      e.sums,
			data:      nil,
		}, nil
	}
	// Lengths of the payloads differ only if chunk counts or tail sums
	// differ; CompareCheckpoints's Len check is bypassed by the nil data,
	// so re-check sizes explicitly first.
	ea, err := s.entry(a)
	if err != nil {
		return CompareResult{}, fmt.Errorf("ckptstore: compare %v: %w", a, err)
	}
	eb, err := s.entry(b)
	if err != nil {
		return CompareResult{}, fmt.Errorf("ckptstore: compare %v: %w", b, err)
	}
	if ea.size != eb.size {
		res := CompareResult{Chunk: -1, Structural: true}
		s.ctrs.recordCompare(res, 0)
		return res, nil
	}
	return compareVia(s.ctrs, meta, a, b)
}

// Evict implements Store.
func (s *Disk) Evict(olderThan uint64) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for k, e := range s.index {
		if k.Epoch < olderThan {
			os.Remove(e.path)
			s.ctrs.bytesEvicted.Add(int64(e.size))
			delete(s.index, k)
			n++
		}
	}
	return n
}

// Keys implements Enumerator.
func (s *Disk) Keys() []Key {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]Key, 0, len(s.index))
	for k := range s.index {
		out = append(out, k)
	}
	return out
}

// Counters implements Store.
func (s *Disk) Counters() Counters { return s.ctrs.snapshot() }
