// Package prefetch models the POWER8 hardware data-prefetch engine and
// the software facilities the paper exercises in Section III-D:
//
//   - sequential stream detection with a configurable depth via the DSCR
//     register (depths "none" through "deepest", DSCR values 1-7);
//   - optional stride-N stream detection (Figure 7), which the default
//     engine configuration does not perform;
//   - DCBT software hints that declare a stream's start address, length
//     and direction, letting the engine skip the detection phase
//     (Figure 8).
//
// The engine is a pure address-stream observer: OnDemand reports which
// line addresses the hardware would fetch ahead; the machine model decides
// when those prefetches complete and what they cost.
package prefetch

import "fmt"

// LineSize is the 128-byte POWER8 cache line.
const LineSize = 128

// Config controls the engine, mirroring the DSCR fields the paper uses.
type Config struct {
	// DSCR is the Data Stream Control Register depth setting, 1..7.
	// 1 disables prefetching; 7 is the deepest setting.
	DSCR int
	// StrideN enables detection of streams that touch every N-th line.
	StrideN bool
	// DetectAfter is the number of consecutive same-stride accesses the
	// hardware needs before it declares a stream. The paper notes the
	// engine "requires several cache line accesses" to recognize a
	// pattern; the default is 3.
	DetectAfter int
	// MaxStreams bounds the number of streams tracked concurrently.
	MaxStreams int
}

// DefaultConfig is the hardware's default behaviour: deepest prefetch,
// stride-N detection off.
func DefaultConfig() Config {
	return Config{DSCR: 7, StrideN: false, DetectAfter: 3, MaxStreams: 16}
}

// DepthLines maps a DSCR depth setting to the number of lines the engine
// runs ahead of the demand stream. DSCR=1 means no prefetching; the
// remaining settings double roughly per step up to the deepest.
func DepthLines(dscr int) int {
	switch dscr {
	case 1:
		return 0
	case 2:
		return 1
	case 3:
		return 2
	case 4:
		return 4
	case 5:
		return 6
	case 6:
		return 8
	case 7:
		return 12
	default:
		panic(fmt.Sprintf("prefetch: DSCR value %d out of range [1,7]", dscr))
	}
}

type stream struct {
	lastLine   int64 // line number of the most recent access in the stream
	stride     int64 // in lines; negative for decreasing streams
	confidence int   // consecutive matching accesses observed
	active     bool  // detection complete, prefetching
	ahead      int64 // line number up to which prefetches were issued
	bounded    bool  // hinted streams know where they end
	endLine    int64 // last line of a bounded stream (inclusive)
	lastUse    uint64
}

// Engine is the prefetch engine state for one hardware thread.
type Engine struct {
	cfg     Config
	depth   int64
	streams []stream
	clock   uint64

	issued   uint64
	detected uint64
}

// New returns an engine with the given configuration. A zero DetectAfter
// or MaxStreams falls back to the defaults.
func New(cfg Config) *Engine {
	if cfg.DSCR == 0 {
		cfg.DSCR = 7
	}
	if cfg.DetectAfter <= 0 {
		cfg.DetectAfter = 3
	}
	if cfg.MaxStreams <= 0 {
		cfg.MaxStreams = 16
	}
	depth := DepthLines(cfg.DSCR) // validates DSCR
	return &Engine{cfg: cfg, depth: int64(depth)}
}

// Config returns the engine's configuration.
func (e *Engine) Config() Config { return e.cfg }

// Issued returns the total number of prefetches generated.
func (e *Engine) Issued() uint64 { return e.issued }

// Detected returns how many streams completed hardware detection (hinted
// streams are not counted; they skip detection).
func (e *Engine) Detected() uint64 { return e.detected }

// OnDemand observes a demand access and returns the line addresses the
// engine fetches ahead as a result (possibly none).
func (e *Engine) OnDemand(addr uint64) []uint64 {
	return e.OnDemandInto(addr, nil)
}

// OnDemandInto is OnDemand appending into buf, so a hot caller can reuse
// one scratch slice across accesses instead of allocating a fresh result
// per prefetch advance. It returns buf extended with the newly issued
// line addresses.
func (e *Engine) OnDemandInto(addr uint64, buf []uint64) []uint64 {
	if e.depth == 0 {
		return buf
	}
	e.clock++
	line := int64(addr / LineSize)

	// Try to extend an existing stream.
	for i := range e.streams {
		s := &e.streams[i]
		if s.active {
			if line == s.lastLine+s.stride {
				if s.bounded && ((s.stride > 0 && line > s.endLine) || (s.stride < 0 && line < s.endLine)) {
					// A declared (DCBT) stream ends where the software
					// said it would; an access past the end belongs to
					// whatever stream comes next — crucial when blocks
					// are address-adjacent but accessed in random order.
					continue
				}
				s.lastLine = line
				s.lastUse = e.clock
				return e.run(s, buf)
			}
			continue
		}
		// Stream under detection.
		delta := line - s.lastLine
		if delta == 0 {
			continue
		}
		match := delta == s.stride
		if s.stride == 0 {
			// Second access of a candidate: adopt the observed stride if
			// it is acceptable under the configuration.
			if e.acceptableStride(delta) {
				s.stride = delta
				match = true
			}
		}
		if match {
			s.lastLine = line
			s.confidence++
			s.lastUse = e.clock
			if s.confidence >= e.cfg.DetectAfter {
				s.active = true
				s.ahead = line
				e.detected++
				return e.run(s, buf)
			}
			return buf
		}
	}

	// No stream matched: start a new candidate at this address.
	e.insert(stream{lastLine: line, confidence: 1, lastUse: e.clock})
	return buf
}

// acceptableStride reports whether the hardware would track a stream with
// the given stride: sequential (|stride| == 1) always, larger strides only
// when stride-N detection is enabled.
func (e *Engine) acceptableStride(stride int64) bool {
	if stride == 1 || stride == -1 {
		return true
	}
	return e.cfg.StrideN && stride != 0
}

// run advances an active stream's prefetch frontier to depth stream
// elements ahead of the last demand access and appends the newly
// prefetched addresses to buf. The frontier never trails the demand
// pointer.
func (e *Engine) run(s *stream, buf []uint64) []uint64 {
	if (s.stride > 0 && s.ahead < s.lastLine) || (s.stride < 0 && s.ahead > s.lastLine) {
		s.ahead = s.lastLine
	}
	target := s.lastLine + e.depth*s.stride
	if s.bounded {
		if s.stride > 0 && target > s.endLine {
			target = s.endLine
		}
		if s.stride < 0 && target < s.endLine {
			target = s.endLine
		}
	}
	issued := 0
	for next := s.ahead + s.stride; ; next += s.stride {
		if s.stride > 0 && next > target {
			break
		}
		if s.stride < 0 && next < target {
			break
		}
		if next < 0 {
			break
		}
		buf = append(buf, uint64(next)*LineSize)
		issued++
	}
	if issued > 0 {
		s.ahead = int64(buf[len(buf)-1] / LineSize)
		e.issued += uint64(issued)
	}
	return buf
}

// Hint implements the DCBT software facility: it declares a stream
// starting at start, running for lines cache lines in the given direction
// (+1 increasing, -1 decreasing), and returns the initial burst of
// prefetch addresses. The stream skips detection entirely.
func (e *Engine) Hint(start uint64, lines int, dir int) []uint64 {
	if e.depth == 0 || lines <= 0 {
		return nil
	}
	if dir != 1 && dir != -1 {
		panic(fmt.Sprintf("prefetch: hint direction must be +1 or -1, got %d", dir))
	}
	e.clock++
	line := int64(start / LineSize)
	s := stream{
		// lastLine is one step before the start so the first demand access
		// matches the stream.
		lastLine:   line - int64(dir),
		stride:     int64(dir),
		confidence: e.cfg.DetectAfter,
		active:     true,
		ahead:      line - int64(dir),
		bounded:    true,
		endLine:    line + int64(dir)*int64(lines-1),
		lastUse:    e.clock,
	}
	burst := e.run(&s, nil)
	e.insert(s)
	return burst
}

// insert adds a stream, evicting the least recently used one if the table
// is full.
func (e *Engine) insert(s stream) {
	if len(e.streams) < e.cfg.MaxStreams {
		e.streams = append(e.streams, s)
		return
	}
	victim := 0
	for i := 1; i < len(e.streams); i++ {
		if e.streams[i].lastUse < e.streams[victim].lastUse {
			victim = i
		}
	}
	e.streams[victim] = s
}
