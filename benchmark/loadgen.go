package main

import (
	"sync"
	"time"
)

// reply is what one frame submission came back with.
type reply struct {
	ok        bool    // 200, body read in full, and — where checked — equal to the oracle; a refusal (429, 503) is not retried
	isKey     bool    // the server ran the key matcher
	rung      string  // X-ASV-Rung
	degraded  bool    // X-ASV-Degraded
	queueMs   float64 // server-reported, JSON replies only
	computeMs float64 // server-reported, JSON replies only
	upBytes   int
	downBytes int
	points    int // X-ASV-Points on cloud replies
}

// shot is one submission as the generator saw it. due is the zero time in a
// closed loop, where there is no schedule to be late against.
type shot struct {
	session, frame  int
	due, sent, done time.Time
	rep             reply
}

// from is when the shot's clock starts: the due time on a schedule, where a
// stall must show in the frames it delayed, and the send in a closed loop.
func (s shot) from() time.Time {
	if s.due.IsZero() {
		return s.sent
	}
	return s.due
}

func (s shot) latencyMs() float64 { return float64(s.done.Sub(s.from())) / 1e6 }

func (s shot) lateMs() float64 {
	if s.due.IsZero() {
		return 0
	}
	return float64(s.sent.Sub(s.due)) / 1e6
}

// sender submits a session's next frame and waits for the whole reply.
type sender interface {
	send() (frame int, rep reply)
}

// paced drives one session open-loop for dur: frame k is due at
// start+offset+k·period, at most one request is outstanding, and a frame
// whose due time has already passed is sent at once. The schedule never
// slows when the server does, so the number of shots is fixed by dur.
func paced(session int, s sender, start time.Time, offset, period, dur time.Duration) []shot {
	var out []shot
	for k := 0; ; k++ {
		due := start.Add(offset + time.Duration(k)*period)
		if due.Sub(start) >= dur {
			return out
		}
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		sent := time.Now()
		frame, rep := s.send()
		done := time.Now()
		out = append(out, shot{session: session, frame: frame, due: due, sent: sent, done: done, rep: rep})
	}
}

// closedLoop sends as soon as the previous reply has been read, until the
// deadline passes.
func closedLoop(session int, s sender, until time.Time) []shot {
	var out []shot
	for time.Now().Before(until) {
		sent := time.Now()
		frame, rep := s.send()
		out = append(out, shot{session: session, frame: frame, sent: sent, done: time.Now(), rep: rep})
	}
	return out
}

// eachSession runs fn once per session, one goroutine each, and returns the
// shots grouped by session.
func eachSession(n int, fn func(i int) []shot) [][]shot {
	out := make([][]shot, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out[i] = fn(i)
		}(i)
	}
	wg.Wait()
	return out
}

// steadyRate is a frames-per-second figure that a transient stall of the
// host does not move. costMs is each completed frame's share of the wall
// clock — its latency in a single closed loop, the gap since the previous
// completion otherwise; the frames are cut into consecutive blocks of size
// and the median block's rate is returned. With less than one whole block it
// is plainly frames over elapsed time.
func steadyRate(costMs []float64, size int) float64 {
	rate := func(cost []float64) float64 {
		if ms := sum(cost); ms > 0 {
			return 1000 * float64(len(cost)) / ms
		}
		return 0
	}
	var rates []float64
	for i := size; i <= len(costMs); i += size {
		rates = append(rates, rate(costMs[i-size:i]))
	}
	if len(rates) == 0 {
		return rate(costMs)
	}
	return median(rates)
}
