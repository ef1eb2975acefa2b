package store

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
	"time"

	"ipmedia/internal/telemetry"
)

// WAL framing: every record is
//
//	u32 length (of type byte + body) | u32 crc32 (over type + body) | type | body
//
// Replay reads sequentially and stops at the first frame that is
// truncated or fails its checksum — the well-formed prefix is the
// recovered state, and the file is truncated back to it so future
// appends never interleave with a corrupt tail.

// walMaxRecord bounds a frame so a corrupt length field cannot demand
// an absurd allocation during replay.
const walMaxRecord = 1 << 20

// walHeaderSize is the frame header: length + crc.
const walHeaderSize = 8

// walFsyncDefault is the default group-commit window: appends buffer
// in memory and one fsync makes the whole window durable.
const walFsyncDefault = 2 * time.Millisecond

// walBatch is one group-commit window's worth of encoded frames. Two
// batches ping-pong between the appenders and the flusher, so steady
// state appends into recycled buffers.
type walBatch struct {
	buf  []byte
	typs []byte // record type per frame, for the durability callback
}

func (b *walBatch) reset() {
	b.buf = b.buf[:0]
	b.typs = b.typs[:0]
}

// wal is the write-ahead log: appends buffer into the pending batch,
// a flusher goroutine writes and fsyncs a batch per window, and Sync
// waits for a watermark. Crash() abandons the pending batch without
// writing it — the test hook that makes "acknowledged" mean what it
// says.
type wal struct {
	f         *os.File
	interval  time.Duration
	onDurable func(typ byte) // called per record, in order, after its batch fsyncs and before sync sees it

	mu      sync.Mutex
	cond    *sync.Cond
	pending *walBatch
	spare   *walBatch
	issued  uint64 // records appended
	durable uint64 // records fsynced
	closed  bool
	crashed bool
	err     error // first write/fsync error; the log is dead after one

	stop chan struct{} // closed with the log; cuts the batching window short
	done chan struct{}

	mFsyncs  *telemetry.Counter
	mRecords *telemetry.Counter
	mBytes   *telemetry.Counter
}

func newWAL(f *os.File, interval time.Duration, onDurable func(byte)) *wal {
	if interval <= 0 {
		interval = walFsyncDefault
	}
	w := &wal{
		f:         f,
		interval:  interval,
		onDurable: onDurable,
		pending:   &walBatch{},
		spare:     &walBatch{},
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
		mFsyncs:   telemetry.C(MetricWALFsyncs),
		mRecords:  telemetry.C(MetricWALRecords),
		mBytes:    telemetry.C(MetricWALBytes),
	}
	w.cond = sync.NewCond(&w.mu)
	go w.flusher()
	return w
}

// appendWALRecord frames one record onto dst.
func appendWALRecord(dst []byte, typ byte, body []byte) []byte {
	var hdr [walHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(1+len(body)))
	crc := crc32.NewIEEE()
	crc.Write([]byte{typ})
	crc.Write(body)
	binary.LittleEndian.PutUint32(hdr[4:8], crc.Sum32())
	dst = append(dst, hdr[:]...)
	dst = append(dst, typ)
	return append(dst, body...)
}

// append buffers one record for the next group commit and returns its
// sequence number (1-based). ok is false once the log is closed,
// crashed, or broken.
func (w *wal) append(typ byte, body []byte) (uint64, bool) {
	w.mu.Lock()
	if w.closed || w.err != nil {
		w.mu.Unlock()
		return 0, false
	}
	w.pending.buf = appendWALRecord(w.pending.buf, typ, body)
	w.pending.typs = append(w.pending.typs, typ)
	w.issued++
	seq := w.issued
	w.cond.Broadcast() // wake the flusher
	w.mu.Unlock()
	return seq, true
}

// flusher is the group-commit goroutine: whenever records are pending
// it sleeps one window to let the batch fill, then writes and fsyncs
// the whole batch at once.
func (w *wal) flusher() {
	defer close(w.done)
	for {
		w.mu.Lock()
		for len(w.pending.typs) == 0 && !w.closed {
			w.cond.Wait()
		}
		if w.crashed || (w.closed && len(w.pending.typs) == 0) || w.err != nil {
			w.mu.Unlock()
			return
		}
		closing := w.closed
		w.mu.Unlock()

		if !closing {
			// The batching window — cut short if the log closes so a
			// clean close never waits out a long interval.
			t := time.NewTimer(w.interval)
			select {
			case <-t.C:
			case <-w.stop:
				t.Stop()
			}
		}

		w.mu.Lock()
		if w.crashed {
			w.mu.Unlock()
			return
		}
		batch := w.pending
		w.pending = w.spare
		w.spare = nil // the batch is in flight; returned below
		w.mu.Unlock()

		var err error
		if _, err = w.f.Write(batch.buf); err == nil {
			err = w.f.Sync()
		}

		if err == nil && w.onDurable != nil {
			// Before the watermark moves: a sync that returns has seen
			// every callback of the records it waited for.
			for _, t := range batch.typs {
				w.onDurable(t)
			}
		}

		w.mu.Lock()
		if err != nil {
			w.err = fmt.Errorf("store: wal write: %w", err)
			w.cond.Broadcast()
			w.mu.Unlock()
			return
		}
		w.durable += uint64(len(batch.typs))
		w.mFsyncs.Inc()
		w.mRecords.Add(uint64(len(batch.typs)))
		w.mBytes.Add(uint64(len(batch.buf)))
		w.cond.Broadcast() // wake Sync waiters
		batch.reset()
		w.spare = batch
		w.mu.Unlock()
	}
}

// sync blocks until every record appended before the call is durable
// (or the log dies). It reports whether durability was reached.
func (w *wal) sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	target := w.issued
	for w.durable < target {
		if w.crashed {
			return fmt.Errorf("store: wal crashed before sync")
		}
		if w.err != nil {
			return w.err
		}
		// A clean close flushes the tail before the flusher exits, so
		// this wait always terminates unless the log crashed or broke —
		// both guarded above.
		w.cond.Wait()
	}
	return nil
}

// durableCount returns the number of records fsynced so far.
func (w *wal) durableCount() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.durable
}

// close flushes everything pending and closes the file.
func (w *wal) close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		<-w.done
		return w.f.Close()
	}
	w.closed = true
	close(w.stop)
	w.cond.Broadcast()
	w.mu.Unlock()
	<-w.done
	return w.f.Close()
}

// crash abandons the pending (unacknowledged) batch and closes the
// file without flushing — the simulated power cut. Records already
// fsynced stay durable; everything buffered is lost, exactly as a real
// crash would lose it.
func (w *wal) crash() {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		<-w.done
		return
	}
	w.closed = true
	w.crashed = true
	close(w.stop)
	w.cond.Broadcast()
	w.mu.Unlock()
	<-w.done
	w.f.Close()
}

// replayWAL reads frames from r, calling fn for each well-formed
// record, and returns the byte offset of the end of the good prefix.
// A truncated or corrupt tail ends replay without error — that is the
// expected shape of a crashed log.
func replayWAL(r io.Reader, fn func(typ byte, body []byte) error) (int64, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var off int64
	var hdr [walHeaderSize]byte
	var body []byte
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return off, nil // clean end or truncated header: stop
		}
		length := binary.LittleEndian.Uint32(hdr[0:4])
		want := binary.LittleEndian.Uint32(hdr[4:8])
		if length == 0 || length > walMaxRecord {
			return off, nil // corrupt length: stop at the good prefix
		}
		if cap(body) < int(length) {
			body = make([]byte, length)
		}
		body = body[:length]
		if _, err := io.ReadFull(br, body); err != nil {
			return off, nil // truncated body
		}
		if crc32.ChecksumIEEE(body) != want {
			return off, nil // corrupt record
		}
		if err := fn(body[0], body[1:]); err != nil {
			return off, err // the record decoded but could not apply
		}
		off += int64(walHeaderSize) + int64(length)
	}
}
