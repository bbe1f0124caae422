// Package durable is the crash-restart persistence layer of a broker: a
// small append-only log plus snapshot store recording everything a node
// must recover to rejoin the overlay warm — its incarnation epoch, the
// routing entries admitted into its table (subscription, source, next
// hop, residual-path statistics, renegotiated floor), and the send
// watermark of every outgoing link.
//
// The on-disk format is a flat stream of CRC-framed records:
//
//	record := len(4) crc32(4) type(1) payload
//
// where crc32 (IEEE) covers type+payload. Both the snapshot and the log
// use the same stream format; a snapshot is simply a log replaying to
// the whole state in one pass. Recovery replays the snapshot, then the
// log, and truncates the log at the first torn or corrupt record — a
// partially flushed tail after a crash costs the records behind it,
// never the store. A store holding a record of the retired version-1
// entry format is not a torn one: Open refuses it (ErrOldFormat) and
// leaves its files as they are. Compaction folds the log into a fresh
// snapshot (written to a temp file and renamed, so a crash
// mid-compaction leaves the previous snapshot intact) and truncates the
// log.
package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"

	"bdps/internal/msg"
	"bdps/internal/vtime"
)

// Record types. An entry's sub is msg.AppendSubscription's body, whose
// filter is binary (wire version 2); recEntryV1 held the version-1 body,
// whose filter was source text, and is no longer read.
const (
	recEpoch   = 0x01 // epoch(4)
	recEntryV1 = 0x02 // retired: source(4) … relaxed(8) sub with a text filter
	recUnsub   = 0x03 // subID(4)
	recMark    = 0x04 // peer(4) seq(8)
	recEntry   = 0x05 // source(4) next(4) hops(4) pathID(4) mean(8) sigma(8) relaxed(8) sub
	recHdrLen  = 9    // len(4) crc(4) type(1)
	maxPayload = 1 << 20
)

// ErrOldFormat reports a store that holds a version-1 entry record
// (subscription filters as text): it was written by an older release,
// and this one does not read it.
var ErrOldFormat = errors.New("durable: store holds version-1 entry records (text filters), which this version does not read")

// Filenames inside a state directory.
const (
	snapName = "snapshot.bin"
	walName  = "wal.bin"
)

// Entry is one recoverable routing-table entry: the subscription plus
// the per-broker routing state the table stores for it. Next is msg.None
// for local delivery entries.
type Entry struct {
	Sub       *msg.Subscription
	Source    msg.NodeID
	Next      msg.NodeID
	Hops      int32
	PathID    int32
	RateMean  float64
	RateSigma float64
	Relaxed   vtime.Millis
}

// State is the recovered content of a store: the last recorded epoch,
// the live entries in admission order, and the per-peer link send
// watermarks.
type State struct {
	Epoch   uint32
	Entries []Entry
	Marks   map[msg.NodeID]uint64
}

// apply folds one decoded record into the state.
func (st *State) apply(typ byte, payload []byte) error {
	switch typ {
	case recEpoch:
		if len(payload) != 4 {
			return fmt.Errorf("durable: epoch payload %d bytes", len(payload))
		}
		st.Epoch = binary.BigEndian.Uint32(payload)
	case recEntry:
		e, err := decodeEntry(payload)
		if err != nil {
			return err
		}
		st.Entries = append(st.Entries, e)
	case recUnsub:
		if len(payload) != 4 {
			return fmt.Errorf("durable: unsub payload %d bytes", len(payload))
		}
		id := msg.SubID(binary.BigEndian.Uint32(payload))
		n := 0
		for _, e := range st.Entries {
			if e.Sub.ID != id {
				st.Entries[n] = e
				n++
			}
		}
		st.Entries = st.Entries[:n]
	case recMark:
		if len(payload) != 12 {
			return fmt.Errorf("durable: mark payload %d bytes", len(payload))
		}
		if st.Marks == nil {
			st.Marks = make(map[msg.NodeID]uint64)
		}
		peer := msg.NodeID(binary.BigEndian.Uint32(payload))
		st.Marks[peer] = binary.BigEndian.Uint64(payload[4:])
	default:
		return fmt.Errorf("durable: unknown record type 0x%02x", typ)
	}
	return nil
}

// Replay applies the record stream in buf to st, stopping at the first
// torn, corrupt or unknown record. It returns the number of bytes
// consumed — the offset recovery truncates the log to — and ErrOldFormat
// when it stopped at a well-framed version-1 entry record rather than at
// a torn tail. Replay never panics, whatever the input.
func Replay(buf []byte, st *State) (int, error) {
	off := 0
	for {
		n, typ, payload := nextRecord(buf[off:])
		if n == 0 {
			return off, nil
		}
		if typ == recEntryV1 {
			return off, ErrOldFormat
		}
		// A record whose frame checks out but whose payload is malformed
		// also ends the replay: no sane appender wrote it, so nothing
		// behind it is trustworthy either. apply validates before it
		// mutates, so a rejected record leaves st untouched.
		if err := st.apply(typ, payload); err != nil {
			return off, nil
		}
		off += n
	}
}

// nextRecord decodes one framed record from the head of buf, returning
// its total length (0 when the head is torn or corrupt).
func nextRecord(buf []byte) (n int, typ byte, payload []byte) {
	if len(buf) < recHdrLen {
		return 0, 0, nil
	}
	plen := int(binary.BigEndian.Uint32(buf))
	if plen < 0 || plen > maxPayload || recHdrLen+plen > len(buf) {
		return 0, 0, nil
	}
	sum := binary.BigEndian.Uint32(buf[4:])
	body := buf[8 : recHdrLen+plen] // type + payload
	if crc32.ChecksumIEEE(body) != sum {
		return 0, 0, nil
	}
	return recHdrLen + plen, buf[8], body[1:]
}

// appendRecord frames one record onto dst.
func appendRecord(dst []byte, typ byte, payload []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(payload)))
	start := len(dst)
	dst = binary.BigEndian.AppendUint32(dst, 0) // crc placeholder
	dst = append(dst, typ)
	dst = append(dst, payload...)
	binary.BigEndian.PutUint32(dst[start:], crc32.ChecksumIEEE(dst[start+4:]))
	return dst
}

// encodeEntry renders one entry's payload.
func encodeEntry(dst []byte, e Entry) ([]byte, error) {
	dst = binary.BigEndian.AppendUint32(dst, uint32(e.Source))
	dst = binary.BigEndian.AppendUint32(dst, uint32(e.Next))
	dst = binary.BigEndian.AppendUint32(dst, uint32(e.Hops))
	dst = binary.BigEndian.AppendUint32(dst, uint32(e.PathID))
	dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(e.RateMean))
	dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(e.RateSigma))
	dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(e.Relaxed))
	return msg.AppendSubscription(dst, e.Sub)
}

const entryHdrLen = 4*4 + 3*8

func decodeEntry(payload []byte) (Entry, error) {
	if len(payload) < entryHdrLen {
		return Entry{}, fmt.Errorf("durable: entry payload %d bytes", len(payload))
	}
	e := Entry{
		Source:    msg.NodeID(binary.BigEndian.Uint32(payload)),
		Next:      msg.NodeID(binary.BigEndian.Uint32(payload[4:])),
		Hops:      int32(binary.BigEndian.Uint32(payload[8:])),
		PathID:    int32(binary.BigEndian.Uint32(payload[12:])),
		RateMean:  math.Float64frombits(binary.BigEndian.Uint64(payload[16:])),
		RateSigma: math.Float64frombits(binary.BigEndian.Uint64(payload[24:])),
		Relaxed:   math.Float64frombits(binary.BigEndian.Uint64(payload[32:])),
	}
	sub, err := msg.DecodeSubscription(payload[entryHdrLen:])
	if err != nil {
		return Entry{}, err
	}
	e.Sub = sub
	return e, nil
}

// Store is an open state directory: the recovered state plus the live
// write-ahead log. Not safe for concurrent use; callers serialize.
type Store struct {
	dir string
	wal *os.File
	st  State
	buf []byte

	// CompactEvery triggers an automatic Checkpoint after that many log
	// appends (0 keeps the default).
	CompactEvery int
	appends      int
}

// DefaultCompactEvery bounds log growth between automatic checkpoints.
const DefaultCompactEvery = 4096

// Open recovers the state under dir (creating it empty when absent) and
// arms the log for appending. A torn log tail is truncated away on the
// spot, so the next crash cannot land behind an already-bad record. A
// store of the retired version-1 entry format fails with ErrOldFormat
// before anything under dir is written.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &Store{dir: dir, CompactEvery: DefaultCompactEvery}
	snapPath := filepath.Join(dir, snapName)
	if snap, err := os.ReadFile(snapPath); err == nil {
		if _, err := Replay(snap, &s.st); err != nil {
			return nil, fmt.Errorf("%s: %w", snapPath, err)
		}
	} else if !os.IsNotExist(err) {
		return nil, err
	}
	walPath := filepath.Join(dir, walName)
	log, err := os.ReadFile(walPath)
	if err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	good, err := Replay(log, &s.st)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", walPath, err)
	}
	f, err := os.OpenFile(walPath, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	if good < len(log) {
		// Torn-write recovery: drop the corrupt tail.
		if err := f.Truncate(int64(good)); err != nil {
			f.Close()
			return nil, err
		}
	}
	if _, err := f.Seek(int64(good), 0); err != nil {
		f.Close()
		return nil, err
	}
	s.wal = f
	return s, nil
}

// State returns the recovered (and since-appended) state. The entries
// slice and marks map are the store's own; callers must not mutate them.
func (s *Store) State() State { return s.st }

// Empty reports whether the store holds no state at all — a fresh
// directory, as opposed to one recovered from a previous incarnation.
func (s *Store) Empty() bool {
	return s.st.Epoch == 0 && len(s.st.Entries) == 0 && len(s.st.Marks) == 0
}

// append writes one record to the log and mirrors it into the in-memory
// state, checkpointing when the log has grown CompactEvery records.
func (s *Store) append(typ byte, payload []byte) error {
	s.buf = appendRecord(s.buf[:0], typ, payload)
	if _, err := s.wal.Write(s.buf); err != nil {
		return err
	}
	if err := s.st.apply(typ, payload); err != nil {
		return err
	}
	every := s.CompactEvery
	if every <= 0 {
		every = DefaultCompactEvery
	}
	if s.appends++; s.appends >= every {
		return s.Checkpoint()
	}
	return nil
}

// SetEpoch records a new incarnation epoch.
func (s *Store) SetEpoch(epoch uint32) error {
	var p [4]byte
	binary.BigEndian.PutUint32(p[:], epoch)
	return s.append(recEpoch, p[:])
}

// AppendEntry records one admitted routing entry.
func (s *Store) AppendEntry(e Entry) error {
	payload, err := encodeEntry(nil, e)
	if err != nil {
		return err
	}
	return s.append(recEntry, payload)
}

// RemoveSub records the retraction of every entry of one subscription.
func (s *Store) RemoveSub(id msg.SubID) error {
	var p [4]byte
	binary.BigEndian.PutUint32(p[:], uint32(id))
	return s.append(recUnsub, p[:])
}

// Reset replaces the store's entire recorded state with st and persists
// it as a fresh snapshot. Callers that maintain the authoritative state
// elsewhere (a broker's live routing table) use it to checkpoint that
// state wholesale instead of replaying it through the append API.
func (s *Store) Reset(st State) error {
	if st.Marks == nil {
		st.Marks = make(map[msg.NodeID]uint64)
	}
	s.st = st
	return s.Checkpoint()
}

// Checkpoint compacts the store: the current state is written as a fresh
// snapshot (temp file + rename, fsynced) and the log truncated to empty.
func (s *Store) Checkpoint() error {
	buf := s.buf[:0]
	var p [12]byte
	binary.BigEndian.PutUint32(p[:4], s.st.Epoch)
	buf = appendRecord(buf, recEpoch, p[:4])
	for _, e := range s.st.Entries {
		payload, err := encodeEntry(nil, e)
		if err != nil {
			return err
		}
		buf = appendRecord(buf, recEntry, payload)
	}
	for peer, seq := range s.st.Marks {
		binary.BigEndian.PutUint32(p[:], uint32(peer))
		binary.BigEndian.PutUint64(p[4:], seq)
		buf = appendRecord(buf, recMark, p[:])
	}
	s.buf = buf

	tmp := filepath.Join(s.dir, snapName+".tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, snapName)); err != nil {
		return err
	}
	if err := s.wal.Truncate(0); err != nil {
		return err
	}
	if _, err := s.wal.Seek(0, 0); err != nil {
		return err
	}
	s.appends = 0
	return nil
}

// Sync flushes the log to stable storage (graceful-drain path).
func (s *Store) Sync() error { return s.wal.Sync() }

// Close syncs and closes the log.
func (s *Store) Close() error {
	if err := s.wal.Sync(); err != nil {
		s.wal.Close()
		return err
	}
	return s.wal.Close()
}
