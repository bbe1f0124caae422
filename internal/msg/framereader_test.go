package msg

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	grt "runtime"
	"testing"
	"unsafe"
)

// bufioFrameReader is the reference FrameReader: the same framing over
// a bufio.Reader that owns BatchBufSize bytes for its whole life, which
// is what FrameReader was before its buffer followed the traffic. One
// difference is deliberate: bufio reads a body of BatchBufSize or more
// straight into the caller's slice and io.ReadFull drops an error that
// comes with its last bytes, where FrameReader holds that error for the
// next call, as it does behind buffered bytes. The reference reads
// bodies through smallReads, which keeps bufio on its buffered path.
type bufioFrameReader struct {
	r   *bufio.Reader
	hdr [frameHdrLen]byte
}

func newBufioFrameReader(r io.Reader) *bufioFrameReader {
	return &bufioFrameReader{r: bufio.NewReaderSize(r, BatchBufSize)}
}

func (fr *bufioFrameReader) Next(fb *FrameBuf) (frameType byte, body []byte, err error) {
	hdr := fr.hdr[:]
	if _, err := io.ReadFull(fr.r, hdr); err != nil {
		return 0, nil, err
	}
	if binary.BigEndian.Uint16(hdr) != wireMagic {
		return 0, nil, ErrBadMagic
	}
	if hdr[2] != wireVersion {
		return 0, nil, ErrBadVersion
	}
	frameType = hdr[3]
	n := binary.BigEndian.Uint32(hdr[4:])
	if n > MaxBodyLen {
		return 0, nil, fmt.Errorf("%w: body %d bytes", ErrTooLarge, n)
	}
	body = fb.grow(int(n))
	if _, err := io.ReadFull(smallReads{fr.r}, body); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, err
	}
	return frameType, body, nil
}

// smallReads asks for less than bufio's buffer in each read, so bufio
// fills its buffer rather than reading into the caller's slice.
type smallReads struct{ r io.Reader }

func (s smallReads) Read(p []byte) (int, error) { return s.r.Read(p[:min(len(p), BatchBufSize-1)]) }

// chunkReader serves data in reads of the sizes its plan names, in
// turn, each cut to what the caller asked for and what is left; with no
// plan, each read takes all it can, as a socket with everything queued
// does. It counts the reads that reach it.
type chunkReader struct {
	data  []byte
	plan  []byte
	next  int
	reads int
	// end says how the data ends: endEOF returns io.EOF on the read
	// after the last bytes, endWithData beside them, and endOnce returns
	// errCut beside them and io.EOF after — an error a reader must hold
	// until the bytes before it are consumed, as bufio does.
	end byte
}

// How a chunkReader's data ends.
const (
	endEOF = iota
	endWithData
	endOnce
)

var errCut = errors.New("connection cut")

// chunkSize maps one plan byte to a read size: a byte, the idle buffer
// and its neighbours, the batch buffer and past it, or a small count.
func chunkSize(c byte) int {
	switch c % 8 {
	case 0:
		return 1
	case 1:
		return idleBufSize
	case 2:
		return idleBufSize - 1
	case 3:
		return idleBufSize + 1
	case 4:
		return BatchBufSize
	case 5:
		return BatchBufSize + 1
	case 6:
		return 3 * BatchBufSize / 2 // crosses the batch buffer's end
	default:
		return int(c>>3) + 2
	}
}

func (c *chunkReader) Read(p []byte) (int, error) {
	c.reads++
	if len(c.data) == 0 {
		return 0, io.EOF
	}
	n := len(p)
	if len(c.plan) > 0 {
		n = min(n, chunkSize(c.plan[c.next%len(c.plan)]))
		c.next++
	}
	n = copy(p, c.data[:min(n, len(c.data))])
	c.data = c.data[n:]
	if len(c.data) > 0 {
		return n, nil
	}
	switch c.end % 3 {
	case endWithData:
		return n, io.EOF
	case endOnce:
		c.end = endEOF
		return n, errCut
	}
	return n, nil
}

// frameSizes are the body lengths a stream plan picks from: empty, one
// byte, small, each side of the idle buffer and of the batch buffer,
// and bodies well past it.
var frameSizes = []int{
	0, 1, 40, 1 << 10,
	idleBufSize - frameHdrLen, idleBufSize - frameHdrLen + 1, idleBufSize, idleBufSize + 1,
	BatchBufSize - frameHdrLen, BatchBufSize - frameHdrLen + 1, BatchBufSize + 1, 150_000,
}

// planStream builds a frame stream from pairs of plan bytes (op, arg):
// a frame of type op whose body length frameSizes[arg] names, a header
// with a bad magic, a bad version or an oversize body length, or a cut
// of up to 15 bytes off the stream so far — so a later header starts
// mid-frame, or the stream ends mid-header or mid-body.
func planStream(plan []byte) []byte {
	var s []byte
	for i := 0; i+1 < len(plan) && len(s) < 1<<20; i += 2 {
		op, arg := plan[i], plan[i+1]
		switch op % 8 {
		case 5:
			s = append(s, 0xBE, 0xEF, wireVersion, FrameMessage, 0, 0, 0, 0)
		case 6:
			s = append(s, 0xBD, 0x75, wireVersion+1, FrameMessage, 0, 0, 0, 0)
		case 7:
			if arg&1 == 0 {
				s = binary.BigEndian.AppendUint32(append(s, 0xBD, 0x75, wireVersion, FrameMessage), MaxBodyLen+1)
			} else {
				s = s[:len(s)-min(len(s), int(arg>>1)%16)]
			}
		default:
			n := frameSizes[int(arg)%len(frameSizes)]
			start := len(s)
			s = BeginFrame(s, op)
			for k := 0; k < n; k++ {
				s = append(s, byte(k*7+i))
			}
			if err := EndFrame(s, start); err != nil {
				panic(err)
			}
		}
	}
	return s
}

// readFrames reads frames until the first error, keeping each body.
func readFrames(next func(*FrameBuf) (byte, []byte, error)) (frames [][]byte, err error) {
	for {
		fb := GetFrameBuf()
		ft, body, err := next(fb)
		if err != nil {
			fb.Release()
			return frames, err
		}
		frames = append(frames, append([]byte{ft}, body...))
		fb.Release()
	}
}

// FuzzFrameReader drives the reader's buffer switching — idle buffer,
// borrowed batch, bodies read straight into their FrameBuf — with
// streams of frames of every size class served in reads of fuzz-chosen
// sizes, and requires exactly the frames and the error the bufio
// reference returns.
func FuzzFrameReader(f *testing.F) {
	f.Add([]byte{1, 2, 1, 2}, []byte{}, byte(endEOF))                             // two small frames, clean io.EOF
	f.Add([]byte{1, 2, 1, 0, 7, 7}, []byte{0}, byte(endEOF))                      // cut 3 bytes into an empty frame's header, one byte a read
	f.Add([]byte{1, 3, 7, 9}, []byte{1}, byte(endWithData))                       // cut mid-body, idle-sized reads, io.EOF with the data
	f.Add([]byte{1, 2, 5, 0, 1, 2}, []byte{2, 3}, byte(endEOF))                   // bad magic behind a frame
	f.Add([]byte{1, 2, 6, 0}, []byte{}, byte(endEOF))                             // bad version
	f.Add([]byte{1, 2, 7, 0}, []byte{}, byte(endEOF))                             // oversize body length
	f.Add([]byte{1, 4, 1, 4, 1, 5, 1, 6, 1, 7}, []byte{}, byte(endOnce))          // bodies each side of the idle buffer, an error with the data
	f.Add([]byte{1, 8, 1, 9, 1, 10, 1, 11, 1, 2}, []byte{4, 5, 6}, byte(endOnce)) // bodies past the batch buffer, reads crossing it
	f.Add(bytes.Repeat([]byte{1, 3}, 80), []byte{6, 0, 1}, byte(endWithData))     // 80 × 1 KiB frames, mixed reads
	f.Add([]byte{1, 7}, []byte{0}, byte(endOnce))                                 // a body past the idle buffer read straight into its FrameBuf a byte at a time, an error with its last byte
	f.Fuzz(func(t *testing.T, plan, reads []byte, end byte) {
		stream := planStream(plan)
		got, gotErr := readFrames(NewFrameReader(&chunkReader{data: stream, plan: reads, end: end}).Next)
		want, wantErr := readFrames(newBufioFrameReader(&chunkReader{data: stream, plan: reads, end: end}).Next)
		if len(got) != len(want) {
			t.Fatalf("%d frames, reference %d (errors %v, %v)", len(got), len(want), gotErr, wantErr)
		}
		for i := range got {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("frame %d differs from the reference", i)
			}
		}
		if gotErr.Error() != wantErr.Error() {
			t.Fatalf("error %v, reference %v", gotErr, wantErr)
		}
	})
}

// TestFrameReaderIsOneSizeClass pins the inline buffer's size: a
// FrameReader is one 2 KiB malloc size class on 64-bit platforms. A few
// bytes more and it takes the next class, 2.25 KiB.
func TestFrameReaderIsOneSizeClass(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sized for 64-bit platforms")
	}
	const n = 64
	keep := make([]*FrameReader, n)
	var before, after grt.MemStats
	grt.ReadMemStats(&before)
	for i := range keep {
		keep[i] = NewFrameReader(nil)
	}
	grt.ReadMemStats(&after)
	grt.KeepAlive(keep)
	for i, class := range after.BySize {
		if class.Size == 2<<10 && class.Mallocs-before.BySize[i].Mallocs < n {
			t.Errorf("%d FrameReaders of %d bytes made %d allocations of the 2 KiB class, want %d",
				n, unsafe.Sizeof(FrameReader{}), class.Mallocs-before.BySize[i].Mallocs, n)
		}
	}
}

// burst appends k frames, each with a body of n bytes.
func burst(dst []byte, k, n int) []byte {
	for i := 0; i < k; i++ {
		start := len(dst)
		dst = BeginFrame(dst, FrameData)
		dst = append(dst, make([]byte, n)...)
		if err := EndFrame(dst, start); err != nil {
			panic(err)
		}
	}
	return dst
}

// TestFrameReaderReturnsDrainedBatch: a burst larger than the idle
// buffer borrows the batch buffer, and once it has drained the reader
// holds none, so an idle connection keeps only its inline bytes.
func TestFrameReaderReturnsDrainedBatch(t *testing.T) {
	stream := burst(nil, 20, 1<<10)
	fr := NewFrameReader(&chunkReader{data: stream})
	borrowed := false
	for i := 0; i < 20; i++ {
		var fb FrameBuf
		if _, _, err := fr.Next(&fb); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		borrowed = borrowed || fr.batch != nil
	}
	if !borrowed {
		t.Fatal("a 20 KiB burst never borrowed the batch buffer")
	}
	if fr.batch != nil || fr.Buffered() != 0 {
		t.Errorf("drained reader holds a batch buffer (%v) or %d buffered bytes", fr.batch != nil, fr.Buffered())
	}
}

// TestFrameReaderAllocs: bursts that borrow the batch buffer, each
// followed by a lone frame read on the idle buffer, allocate nothing
// per frame once the pools are warm.
func TestFrameReaderAllocs(t *testing.T) {
	stream := burst(nil, 40, 1<<10)
	stream = burst(stream, 1, 100)
	var rd bytes.Reader
	fr := NewFrameReader(&rd)
	fb := GetFrameBuf()
	defer fb.Release()
	cycle := func() {
		rd.Reset(stream[:len(stream)-108])
		for i := 0; i < 40; i++ {
			if _, _, err := fr.Next(fb); err != nil {
				t.Fatal(err)
			}
		}
		if fr.batch != nil {
			t.Fatal("batch buffer held after its burst")
		}
		rd.Reset(stream[len(stream)-108:])
		if _, _, err := fr.Next(fb); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		cycle()
	}
	// Under -race the cycles still run; only the count is left unjudged,
	// since the race runtime makes sync.Pool drop objects.
	if avg := testing.AllocsPerRun(100, cycle); avg > 0 && !raceEnabled {
		t.Errorf("a burst of 40 frames and a lone one allocate %.2f objects, want 0", avg)
	}
}

// TestFrameReaderBatchesLikeBufio: a burst of 60 × 1 KiB frames queued
// at once takes at most one read more than the bufio reference, which
// holds a batch-sized buffer all the time: the idle buffer's one read.
func TestFrameReaderBatchesLikeBufio(t *testing.T) {
	stream := burst(nil, 60, 1<<10)
	src := &chunkReader{data: stream}
	frames, err := readFrames(NewFrameReader(src).Next)
	ref := &chunkReader{data: stream}
	want, refErr := readFrames(newBufioFrameReader(ref).Next)
	if len(frames) != 60 || len(want) != 60 || !errors.Is(err, io.EOF) || !errors.Is(refErr, io.EOF) {
		t.Fatalf("read %d and %d frames, ending %v and %v", len(frames), len(want), err, refErr)
	}
	if src.reads > ref.reads+1 {
		t.Errorf("%d reads, bufio reference %d: want at most one more", src.reads, ref.reads)
	}
}
