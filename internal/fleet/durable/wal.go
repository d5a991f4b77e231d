// Package durable is the fleet's crash-safety layer: a write-ahead log
// that journals job submissions (scenario spec + pre-resolved per-cell
// seeds) and a per-job ledger of completed cells, so a coordinator killed
// mid-sweep can restart, replay the log, and finish by dispatching only
// the unfinished cells. Because every cell's seed was resolved at submit
// time (grid-position-stable, PR 3's contract), a resumed sweep's final
// aggregates are byte-identical to an uninterrupted run.
//
// The file format is deliberately boring: an 8-byte magic+version header
// followed by length-prefixed, CRC32C-checksummed records. A torn tail —
// the expected shape after SIGKILL or power loss mid-append — is detected
// and truncated on open; the lost unsynced cells simply re-run. A checksum
// mismatch with more data behind it is real corruption and fails loudly.
package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
)

// walMagic identifies a WAL file; the final byte is the format version.
// Bumping the version makes older daemons refuse newer logs (ErrVersion)
// instead of misparsing them.
const (
	walMagicPrefix = "USTAWAL"
	walVersion     = byte(1)
	walHeaderLen   = len(walMagicPrefix) + 1
)

// Frame layout: [4B LE payload length][1B record type][payload][4B CRC32C
// over type+payload].
const frameOverhead = 4 + 1 + 4

// castagnoli is the CRC32C table (the checksum storage systems use; it has
// hardware support on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrVersion reports a WAL written by a different (newer or older) format
// version — the file is intact but this binary must not reinterpret it.
var ErrVersion = errors.New("durable: unsupported WAL format version")

// ErrCorrupt reports a mid-file checksum or framing failure: unlike a torn
// tail, bytes after the bad record prove the file was damaged after it was
// written, so silently truncating would discard acknowledged state.
var ErrCorrupt = errors.New("durable: corrupt WAL")

// Record is one replayed WAL entry.
type Record struct {
	Type    byte
	Payload []byte
}

// WAL is an append-only record log over one file. Appends are
// fsync-batched: every SyncEvery-th record (and every explicit Sync)
// flushes to stable storage, bounding both the fsync rate under streaming
// cell completions and the number of acknowledged records a crash can
// lose. A WAL is not safe for concurrent use; callers serialize.
type WAL struct {
	f        *os.File
	unsynced int
	// SyncEvery is the fsync batch size (records per fsync). Zero or
	// negative syncs on every append.
	SyncEvery int
	buf       []byte
}

// Create creates (or truncates) a WAL at path and writes the header,
// synced to disk before returning.
func Create(path string) (*WAL, error) {
	return create(path, os.O_TRUNC)
}

// CreateExclusive is Create, but fails if the file already exists — the
// collision backstop behind restart-safe job IDs.
func CreateExclusive(path string) (*WAL, error) {
	return create(path, os.O_EXCL)
}

// create opens path with flag (O_TRUNC or O_EXCL) and writes the header.
func create(path string, flag int) (*WAL, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|flag, 0o644)
	if err != nil {
		return nil, err
	}
	if _, err := f.Write(append([]byte(walMagicPrefix), walVersion)); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, err
	}
	return &WAL{f: f}, nil
}

// Open opens an existing WAL, replays its intact records, truncates any
// torn tail (an incomplete header counts as one), and positions the file
// for appending. A zero-length file is initialized fresh. Mid-file damage
// returns ErrCorrupt; a foreign or future-version header returns
// ErrVersion wrapped with the observed byte.
func Open(path string) (*WAL, []Record, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, err
	}
	data, err := readAll(f)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	w := &WAL{f: f}

	initFresh := func() (*WAL, []Record, error) {
		if err := f.Truncate(0); err != nil {
			f.Close()
			return nil, nil, err
		}
		if _, err := f.WriteAt(append([]byte(walMagicPrefix), walVersion), 0); err != nil {
			f.Close()
			return nil, nil, err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, nil, err
		}
		if _, err := f.Seek(int64(walHeaderLen), 0); err != nil {
			f.Close()
			return nil, nil, err
		}
		return w, nil, nil
	}

	if len(data) < walHeaderLen {
		// Empty file, or a crash mid-header-write: nothing was ever
		// acknowledged, start fresh.
		return initFresh()
	}
	if string(data[:len(walMagicPrefix)]) != walMagicPrefix {
		f.Close()
		return nil, nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, data[:walHeaderLen])
	}
	if v := data[len(walMagicPrefix)]; v != walVersion {
		f.Close()
		return nil, nil, fmt.Errorf("%w: got %d, want %d", ErrVersion, v, walVersion)
	}

	var recs []Record
	off := walHeaderLen
	for off < len(data) {
		if off+4 > len(data) {
			break // torn tail: partial length prefix
		}
		n := int(binary.LittleEndian.Uint32(data[off:]))
		end := off + 4 + 1 + n + 4
		if n < 0 || end < off || end > len(data) {
			break // torn tail: record extends past EOF
		}
		body := data[off+4 : off+4+1+n] // type byte + payload
		want := binary.LittleEndian.Uint32(data[off+4+1+n:])
		if crc32.Checksum(body, castagnoli) != want {
			if end == len(data) {
				break // torn tail: final record half-written
			}
			f.Close()
			return nil, nil, fmt.Errorf("%w: checksum mismatch at offset %d", ErrCorrupt, off)
		}
		recs = append(recs, Record{Type: body[0], Payload: append([]byte(nil), body[1:]...)})
		off = end
	}
	if off < len(data) {
		if err := f.Truncate(int64(off)); err != nil {
			f.Close()
			return nil, nil, err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, nil, err
		}
	}
	if _, err := f.Seek(int64(off), 0); err != nil {
		f.Close()
		return nil, nil, err
	}
	return w, recs, nil
}

func readAll(f *os.File) ([]byte, error) {
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	data := make([]byte, fi.Size())
	if _, err := f.ReadAt(data, 0); err != nil && fi.Size() > 0 {
		return nil, err
	}
	return data, nil
}

// Append writes one record. The write is atomic with respect to replay
// (a crash mid-append leaves a torn tail Open truncates) but not
// necessarily durable until the batch's fsync — callers that need a
// record on stable storage before proceeding follow with Sync.
func (w *WAL) Append(typ byte, payload []byte) error {
	n := len(payload)
	w.buf = w.buf[:0]
	w.buf = binary.LittleEndian.AppendUint32(w.buf, uint32(n))
	w.buf = append(w.buf, typ)
	w.buf = append(w.buf, payload...)
	crc := crc32.Checksum(w.buf[4:], castagnoli)
	w.buf = binary.LittleEndian.AppendUint32(w.buf, crc)
	if _, err := w.f.Write(w.buf); err != nil {
		return err
	}
	w.unsynced++
	if w.SyncEvery <= 1 || w.unsynced >= w.SyncEvery {
		return w.Sync()
	}
	return nil
}

// Sync flushes appended records to stable storage.
func (w *WAL) Sync() error {
	if w.unsynced == 0 {
		return nil
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	w.unsynced = 0
	return nil
}

// Close syncs and closes the file.
func (w *WAL) Close() error {
	err := w.Sync()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	return err
}
