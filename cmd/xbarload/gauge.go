package main

// The host gauge. The benchmark was sized on a shared 2-vCPU VM whose
// speed is not its own: as neighbours come and go, the same requests
// take up to three times as long, within seconds and over minutes. Part
// of that is slower code, and part is the time a sleeping thread takes
// to wake when a message reaches it, which every request pays on both
// sides of the connection. Between the windows of a phase, while no
// request is in flight, the gauge runs a miniature request for
// gaugeSlice: a fixed task on this thread, a one-byte message through a
// pipe to a second thread that sleeps in read, the same task there, and
// a byte back. Its median wall time, over gaugeNominalUs, is the host
// factor: how slow the host ran then. The end-to-end timings are
// divided by it.
//
// The task resembles the work of a request on either side of the
// connection: JSON decode and encode, a loopback TCP write and read, a
// pass over memory that does not fit in the core's caches. It uses no
// xbar code, and it never runs beside the load, so a change to xbar
// cannot move it: not by its own code, and not by the pressure its load
// puts on the caches and the memory bus.

import (
	"encoding/json"
	"errors"
	"io"
	"net"
	"runtime"
	"syscall"
	"time"
)

// gaugeNominalUs is the round trip's wall time on the host the
// benchmark was sized on, with nothing else running, during a quiet
// period. Timings divided by the gauge's factor read as measured at
// that speed.
const gaugeNominalUs = 48.0

// gaugeSlice is how long one reading runs round trips; gaugeWarm round
// trips before it are not timed, so the reading does not count the
// caches the load left cold.
const (
	gaugeSlice = 20 * time.Millisecond
	gaugeWarm  = 10
)

// gaugeDoc is what the task decodes and encodes, shaped like a
// /v1/blocking response.
type gaugeDoc struct {
	N1, N2      int
	Method      string
	LogG        float64
	Utilization float64
	Classes     []gaugeClass
}

type gaugeClass struct {
	A                                        int
	Blocking, NonBlocking, Concurrency, Rate float64
}

// side is the task's state on one end of the round trip.
type side struct {
	a, b net.Conn
	doc  []byte
	buf  [1024]byte
	mem  []float64
	off  int
	sink float64
}

// newSide sets one end's task up; close releases its connection.
func newSide() (*side, error) {
	a, b, err := loopbackPair()
	if err != nil {
		return nil, err
	}
	sd := &side{a: a, b: b, mem: make([]float64, 1<<20)}
	var d gaugeDoc
	d.N1, d.N2, d.Method, d.LogG, d.Utilization = 64, 48, "alg1", 123.456789012345, 0.4321
	d.Classes = make([]gaugeClass, 3)
	for i := range d.Classes {
		c := &d.Classes[i]
		c.A, c.Blocking, c.NonBlocking, c.Concurrency, c.Rate = i+1, 0.0123456789*float64(i+1), 0.987654321, 3.14159*float64(i+1), 2.71828
	}
	if sd.doc, err = json.Marshal(&d); err != nil {
		sd.close()
		return nil, err
	}
	for i := range sd.mem {
		sd.mem[i] = float64(i)
	}
	return sd, nil
}

// task runs the fixed task once.
func (sd *side) task() error {
	var d gaugeDoc
	if err := json.Unmarshal(sd.doc, &d); err != nil {
		return err
	}
	out, err := json.Marshal(&d)
	if err != nil {
		return err
	}
	n := copy(sd.buf[:], out)
	if _, err := sd.a.Write(sd.buf[:n]); err != nil {
		return err
	}
	if _, err := io.ReadFull(sd.b, sd.buf[:n]); err != nil {
		return err
	}
	const chunk = 4096
	s := 0.0
	for _, x := range sd.mem[sd.off : sd.off+chunk] {
		s += x
	}
	sd.sink += s
	// Stride through the 8 MB array so consecutive tasks touch
	// different lines.
	sd.off = (sd.off + 7*chunk) % (len(sd.mem) - chunk)
	return nil
}

func (sd *side) close() {
	_ = sd.a.Close() //lint:allow errcheck nothing written on it must arrive
	_ = sd.b.Close() //lint:allow errcheck nothing written on it must arrive
}

// gauge is the round trip: the near side runs on the thread that reads
// the gauge, the far side on an echo thread. toFar and fromFar are
// pipes, [0] the read end and [1] the write end.
type gauge struct {
	near, far      *side
	toFar, fromFar [2]int
	done           chan error // the echo thread's end
	times          []float64  // round trip times of the last reading, in µs
}

// newGauge sets the round trip up and starts the echo thread; close
// stops it.
func newGauge() (*gauge, error) {
	g := &gauge{done: make(chan error, 1)}
	var err error
	if g.near, err = newSide(); err != nil {
		return nil, err
	}
	if g.far, err = newSide(); err != nil {
		g.near.close()
		return nil, err
	}
	if err = syscall.Pipe2(g.toFar[:], syscall.O_CLOEXEC); err == nil {
		if err = syscall.Pipe2(g.fromFar[:], syscall.O_CLOEXEC); err != nil {
			closeFDs(g.toFar[:]...)
		}
	}
	if err != nil {
		g.near.close()
		g.far.close()
		return nil, err
	}
	go g.echo()
	return g, nil
}

// echo serves the far side on a thread of its own, which sleeps in
// read between round trips, until the near side closes toFar.
func (g *gauge) echo() {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	// Closing fromFar ends a round trip the near side is waiting on.
	defer closeFDs(g.toFar[0], g.fromFar[1])
	var b [1]byte
	for {
		n, err := pipeIO(syscall.Read, g.toFar[0], b[:])
		if n == 0 || err != nil {
			g.done <- err
			return
		}
		if err = g.far.task(); err == nil {
			_, err = pipeIO(syscall.Write, g.fromFar[1], b[:])
		}
		if err != nil {
			g.done <- err
			return
		}
	}
}

// read runs round trips for gaugeSlice and returns the host factor: 1
// at nominal speed, 2 when the median round trip took twice as long.
// The median ignores the few wake-ups of several milliseconds a slow
// host deals out: a 20 ms slice can catch one whole, while a window of
// the load spreads it over hundreds of requests. Call read only while
// no load runs.
func (g *gauge) read() (float64, error) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	for i := 0; i < gaugeWarm; i++ {
		if err := g.roundTrip(); err != nil {
			return 0, err
		}
	}
	g.times = g.times[:0]
	for start := time.Now(); time.Since(start) < gaugeSlice; {
		t0 := time.Now()
		if err := g.roundTrip(); err != nil {
			return 0, err
		}
		g.times = append(g.times, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	return quantile(g.times, 0.5) / gaugeNominalUs, nil
}

// errEchoEnded is a round trip whose far side has stopped.
var errEchoEnded = errors.New("host gauge: the echo thread has ended")

func (g *gauge) roundTrip() error {
	if err := g.near.task(); err != nil {
		return err
	}
	b := [1]byte{1}
	if _, err := pipeIO(syscall.Write, g.toFar[1], b[:]); err != nil {
		return err
	}
	n, err := pipeIO(syscall.Read, g.fromFar[0], b[:])
	if err == nil && n == 0 {
		err = errEchoEnded
	}
	return err
}

// close stops the echo thread, waits until it has ended, and releases
// the round trip's pipes and connections.
func (g *gauge) close() {
	closeFDs(g.toFar[1])
	<-g.done // an error of the echo thread has ended a read already
	closeFDs(g.fromFar[0])
	g.near.close()
	g.far.close()
}

// pipeIO runs a pipe read or write again when a signal interrupts it.
func pipeIO(op func(int, []byte) (int, error), fd int, b []byte) (int, error) {
	for {
		n, err := op(fd, b)
		if err != syscall.EINTR {
			return n, err
		}
	}
}

func closeFDs(fds ...int) {
	for _, fd := range fds {
		_ = syscall.Close(fd) //lint:allow errcheck nothing written on it must arrive
	}
}

// meanFactor is the host factor over an interval between two readings.
func meanFactor(before, after float64) float64 { return (before + after) / 2 }

// loopbackPair returns the two ends of one loopback TCP connection.
func loopbackPair() (net.Conn, net.Conn, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	defer ln.Close() //lint:allow errcheck the listener only hands over one connection
	type accepted struct {
		c   net.Conn
		err error
	}
	ch := make(chan accepted, 1)
	go func() {
		c, err := ln.Accept()
		ch <- accepted{c, err}
	}()
	a, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		// Closing the listener on return ends the Accept.
		return nil, nil, err
	}
	r := <-ch
	if r.err != nil {
		_ = a.Close() //lint:allow errcheck best-effort cleanup on the error path
		return nil, nil, r.err
	}
	return a, r.c, nil
}
