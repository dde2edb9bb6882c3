package worker

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os/exec"
	"sync"
	"time"

	"repro/internal/journal"
	"repro/internal/telemetry"
)

// ErrCircuitOpen is returned by Pool.Run when worker churn exceeded
// Options.MaxRestarts: the host evidently cannot sustain process isolation
// (fork bombs into OOM, a broken binary, a hostile ulimit), so the caller
// should degrade to in-process execution rather than burn restarts forever.
var ErrCircuitOpen = errors.New("worker: circuit breaker open: too many worker restarts")

// Result is one unit's verdict as delivered to the Pool.Run callback.
// Quarantined is set when the unit crashed MaxDeliveries workers and was
// assigned Options.Quarantine instead of a real verdict.
type Result struct {
	Index       int
	Outcome     journal.Outcome
	Payload     []byte
	Quarantined bool
}

// Options configures a supervising Pool. Zero values pick the documented
// defaults; Command and Spec are mandatory.
type Options struct {
	// Workers is the number of worker processes (default 1).
	Workers int

	// Command builds the (not yet started) worker subprocess. Stdin/Stdout
	// are taken over by the pool; Stderr is left as the caller set it.
	Command func() *exec.Cmd

	// Spec is sent to every worker in the hello frame.
	Spec Spec

	// HeartbeatInterval is the cadence workers are told to beat at
	// (default 500ms). HeartbeatTimeout is how long the supervisor tolerates
	// total silence — no heartbeat, no verdict — before declaring the worker
	// wedged and killing it (default 10s).
	HeartbeatInterval time.Duration
	HeartbeatTimeout  time.Duration

	// UnitTimeout, when positive, bounds one unit's wall clock. The
	// supervisor's hard deadline per delivery is 2*UnitTimeout +
	// HeartbeatTimeout: the worker enforces the same timeout internally and
	// reports a host fault, so the supervisor's deadline only fires when the
	// worker is too wedged to do even that.
	UnitTimeout time.Duration

	// MaxDeliveries is how many workers a unit may take down before it is
	// quarantined with the Quarantine outcome (default 2: one retry).
	MaxDeliveries int

	// MaxRestarts is the pool-wide churn budget: abnormal worker deaths
	// beyond it trip the circuit breaker (default max(8, 2*Workers)).
	// Clean self-recycles (verdict with last set) are free.
	MaxRestarts int

	// BackoffBase/BackoffMax shape the exponential restart backoff
	// (defaults 100ms and 5s).
	BackoffBase time.Duration
	BackoffMax  time.Duration

	// MemQuota is the worker RSS self-recycle threshold in bytes
	// (default 2GiB; negative disables).
	MemQuota int64

	// Quarantine is the outcome recorded for a unit that exhausted
	// MaxDeliveries.
	Quarantine journal.Outcome

	// Log, when non-nil, receives one line per supervision event (worker
	// death, redelivery, quarantine, breaker trip).
	Log func(format string, args ...any)

	// WrapPipes, when non-nil, intercepts the supervisor's side of each
	// spawned worker's pipes (the stdin writer and the stdout reader)
	// before any frame crosses them. It exists for the chaos layer: the
	// wrapper corrupts, truncates or severs the byte streams, and the CRC
	// framing plus the restart/redelivery machinery must absorb it. The
	// wrapped writer's Close must close the underlying pipe.
	WrapPipes func(w io.WriteCloser, r io.Reader) (io.WriteCloser, io.Reader)

	// Metrics, when non-nil, counts supervision events (restarts,
	// redeliveries, quarantines, breaker state) and observes the heartbeat
	// gap and delivery latency. Tracer, when non-nil, receives the matching
	// structured events. Both are passive: verdicts and requeue decisions
	// are identical with them on or off.
	Metrics *telemetry.WorkerMetrics
	Tracer  *telemetry.Tracer
}

func (o *Options) fill() {
	if o.Workers < 1 {
		o.Workers = 1
	}
	if o.HeartbeatInterval <= 0 {
		o.HeartbeatInterval = 500 * time.Millisecond
	}
	if o.HeartbeatTimeout <= 0 {
		o.HeartbeatTimeout = 10 * time.Second
	}
	if o.MaxDeliveries < 1 {
		o.MaxDeliveries = 2
	}
	if o.MaxRestarts == 0 {
		o.MaxRestarts = 2 * o.Workers
		if o.MaxRestarts < 8 {
			o.MaxRestarts = 8
		}
	}
	if o.BackoffBase <= 0 {
		o.BackoffBase = 100 * time.Millisecond
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = 5 * time.Second
	}
	if o.MemQuota == 0 {
		o.MemQuota = 2 << 30
	}
}

func (o *Options) logf(format string, args ...any) {
	if o.Log != nil {
		o.Log(format, args...)
	}
}

// Pool supervises a fleet of worker subprocesses and drives a set of unit
// indices through them.
type Pool struct {
	opts Options
}

// NewPool validates and captures the options.
func NewPool(opts Options) (*Pool, error) {
	if opts.Command == nil {
		return nil, errors.New("worker: Options.Command is required")
	}
	opts.fill()
	return &Pool{opts: opts}, nil
}

// job is one unit delivery attempt.
type job struct {
	index      int
	deliveries int // completed deliveries so far (crashes consumed)
}

// poolRun is the shared state of one Pool.Run call.
type poolRun struct {
	opts *Options
	jobs chan job
	done chan struct{} // closed when every unit has a final answer

	mu        sync.Mutex
	remaining int
	restarts  int
	tripped   bool
	onResult  func(Result) error
	cbErr     error // first error from onResult; aborts the run
}

// Run executes the given unit indices across the pool and calls onResult
// exactly once per index (serialised; never concurrently). It returns nil
// when every index has a verdict or a quarantine, ErrCircuitOpen when the
// breaker tripped (some indices then have no result — the caller falls back
// in-process), ctx.Err() on cancellation, or the first error returned by
// onResult.
func (p *Pool) Run(ctx context.Context, indices []int, onResult func(Result) error) error {
	if len(indices) == 0 {
		return nil
	}
	r := &poolRun{
		opts:      &p.opts,
		jobs:      make(chan job, len(indices)),
		done:      make(chan struct{}),
		remaining: len(indices),
		onResult:  onResult,
	}
	for _, ix := range indices {
		r.jobs <- job{index: ix}
	}

	workers := p.opts.Workers
	if workers > len(indices) {
		workers = len(indices) // never spawn a process with nothing to do
	}
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			r.manage(ctx, slot)
		}(i)
	}
	wg.Wait()

	r.mu.Lock()
	defer r.mu.Unlock()
	if r.cbErr != nil {
		return r.cbErr
	}
	if err := ctx.Err(); err != nil && r.remaining > 0 {
		return err
	}
	if r.tripped {
		return ErrCircuitOpen
	}
	return nil
}

// finish delivers a final answer for a unit and closes the run when it was
// the last one.
func (r *poolRun) finish(res Result) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.cbErr == nil && r.onResult != nil {
		if err := r.onResult(res); err != nil {
			r.cbErr = err
			r.closeDone()
			return
		}
	}
	r.remaining--
	if r.remaining == 0 {
		r.closeDone()
	}
}

// abort stops the run without finishing the remaining units.
func (r *poolRun) abort(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.cbErr == nil {
		r.cbErr = err
	}
	r.closeDone()
}

func (r *poolRun) closeDone() {
	select {
	case <-r.done:
	default:
		close(r.done)
	}
}

// churn counts one abnormal worker death and reports whether the breaker is
// now open.
func (r *poolRun) churn() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.restarts++
	if m := r.opts.Metrics; m != nil {
		m.Restarts.Inc()
	}
	r.opts.Tracer.Emit(telemetry.Event{Kind: telemetry.KindRestart, Detail: fmt.Sprintf("restart %d/%d", r.restarts, r.opts.MaxRestarts)})
	if r.restarts > r.opts.MaxRestarts && !r.tripped {
		r.tripped = true
		if m := r.opts.Metrics; m != nil {
			m.BreakerOpen.Set(1)
		}
		r.opts.Tracer.Emit(telemetry.Event{Kind: telemetry.KindBreaker, Detail: fmt.Sprintf("after %d restarts", r.restarts)})
		r.opts.logf("worker: circuit breaker open after %d restarts; degrading to in-process execution", r.restarts)
		r.closeDone()
	}
	return r.tripped
}

func (r *poolRun) isTripped() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.tripped
}

// requeue puts a unit back after its worker died mid-delivery, or
// quarantines it when deliveries are exhausted.
func (r *poolRun) requeue(j job) {
	j.deliveries++
	if j.deliveries >= r.opts.MaxDeliveries {
		if m := r.opts.Metrics; m != nil {
			m.Quarantines.Inc()
		}
		r.opts.Tracer.Emit(telemetry.Event{Kind: telemetry.KindQuarantine, Unit: j.index, Detail: "exhausted worker deliveries"})
		r.opts.logf("worker: unit %d crashed %d workers; quarantined as host fault", j.index, j.deliveries)
		r.finish(Result{Index: j.index, Outcome: r.opts.Quarantine, Quarantined: true})
		return
	}
	if m := r.opts.Metrics; m != nil {
		m.Redeliveries.Inc()
	}
	r.opts.Tracer.Emit(telemetry.Event{Kind: telemetry.KindRedeliver, Unit: j.index})
	r.opts.logf("worker: unit %d redelivered (attempt %d/%d)", j.index, j.deliveries+1, r.opts.MaxDeliveries)
	r.jobs <- j
}

// manage is one worker slot's lifecycle loop: spawn (with backoff), drain
// jobs through the live worker, account its death, repeat — until the run
// completes, the context is cancelled, or the breaker opens.
func (r *poolRun) manage(ctx context.Context, slot int) {
	backoff := r.opts.BackoffBase
	for {
		select {
		case <-r.done:
			return
		case <-ctx.Done():
			return
		default:
		}
		if r.isTripped() {
			return
		}

		w, err := spawn(r.opts)
		if err != nil {
			r.opts.logf("worker[%d]: spawn failed: %v", slot, err)
			if r.churn() {
				return
			}
			if !sleepCtx(ctx, r.done, backoff) {
				return
			}
			backoff = nextBackoff(backoff, r.opts.BackoffMax)
			continue
		}

		clean := r.serve(ctx, slot, w)
		w.kill()
		if clean {
			backoff = r.opts.BackoffBase // a self-recycle is not churn
			continue
		}
		if r.churn() {
			return
		}
		if !sleepCtx(ctx, r.done, backoff) {
			return
		}
		backoff = nextBackoff(backoff, r.opts.BackoffMax)
	}
}

// serve runs one worker from handshake to death. It returns true when the
// worker ended cleanly (self-recycle or run completion) and false on any
// abnormal death, which the caller counts as churn.
func (r *poolRun) serve(ctx context.Context, slot int, w *liveWorker) bool {
	// beat observes the gap between consecutive heartbeats from this worker;
	// a no-op without metrics.
	var lastBeat time.Time
	beat := func() {
		if m := r.opts.Metrics; m != nil && m.HeartbeatGap != nil {
			now := time.Now()
			if !lastBeat.IsZero() {
				m.HeartbeatGap.Observe(uint64(now.Sub(lastBeat).Microseconds()))
			}
			lastBeat = now
		}
	}

	// Handshake: wait for ready, tolerating heartbeats (planning inside the
	// worker can be slow, and heartbeats start before it).
	deadline := time.NewTimer(r.opts.HeartbeatTimeout)
	defer deadline.Stop()
	for {
		select {
		case <-ctx.Done():
			return true // not the worker's fault
		case <-r.done:
			return true
		case <-deadline.C:
			r.opts.logf("worker[%d]: no ready frame within %v", slot, r.opts.HeartbeatTimeout)
			return false
		case fr, ok := <-w.frames:
			if !ok {
				r.opts.logf("worker[%d]: died during handshake: %v", slot, w.readErr())
				return false
			}
			switch fr.typ {
			case msgHeartbeat:
				beat()
				resetTimer(deadline, r.opts.HeartbeatTimeout)
				continue
			case msgError:
				r.abort(fmt.Errorf("worker[%d]: %s", slot, fr.payload))
				return true
			case msgReady:
				rd, err := decodeReady(fr.payload)
				if err != nil {
					r.opts.logf("worker[%d]: %v", slot, err)
					return false
				}
				if rd.Version != ProtocolVersion {
					r.abort(fmt.Errorf("worker[%d]: speaks protocol version %d, supervisor speaks %d", slot, rd.Version, ProtocolVersion))
					return true
				}
				if rd.Fingerprint != r.opts.Spec.Fingerprint {
					r.abort(fmt.Errorf("worker[%d]: rebuilt plan fingerprint %016x, supervisor planned %016x — differing builds or configuration", slot, rd.Fingerprint, r.opts.Spec.Fingerprint))
					return true
				}
				w.units = int(rd.Units)
			default:
				r.opts.logf("worker[%d]: frame type %d during handshake", slot, fr.typ)
				return false
			}
		}
		break
	}

	// Serve loop: pull a job, deliver it, await its verdict under the
	// silence timer and (when configured) a per-delivery hard deadline.
	// One timer is reused across deliveries; it is re-armed per unit and
	// parked between them.
	hardTimer := time.NewTimer(time.Hour)
	hardTimer.Stop()
	defer hardTimer.Stop()
	for {
		var j job
		select {
		case <-ctx.Done():
			return true
		case <-r.done:
			return true
		case j = <-r.jobs:
		}

		if j.index >= w.units {
			// The worker planned fewer units than the supervisor; its
			// fingerprint matched so this is unreachable in practice, but an
			// out-of-range exec would kill the worker and burn a delivery.
			r.abort(fmt.Errorf("worker[%d]: plan has %d units, supervisor wants unit %d", slot, w.units, j.index))
			return true
		}
		var sent time.Time
		if m := r.opts.Metrics; m != nil && m.DeliveryLatency != nil {
			sent = time.Now()
		}
		var ix [4]byte
		binary.LittleEndian.PutUint32(ix[:], uint32(j.index))
		if err := w.send(msgExec, ix[:]); err != nil {
			r.opts.logf("worker[%d]: delivering unit %d: %v", slot, j.index, err)
			r.requeue(j)
			return false
		}

		var hard <-chan time.Time
		if r.opts.UnitTimeout > 0 {
			resetTimer(hardTimer, 2*r.opts.UnitTimeout+r.opts.HeartbeatTimeout)
			hard = hardTimer.C
		}
		resetTimer(deadline, r.opts.HeartbeatTimeout)

	await:
		for {
			select {
			case <-ctx.Done():
				return true
			case <-r.done:
				return true
			case <-deadline.C:
				r.opts.logf("worker[%d]: silent for %v on unit %d; killing", slot, r.opts.HeartbeatTimeout, j.index)
				r.requeue(j)
				return false
			case <-hard:
				r.opts.logf("worker[%d]: unit %d exceeded the hard deadline; killing", slot, j.index)
				r.requeue(j)
				return false
			case fr, ok := <-w.frames:
				if !ok {
					r.opts.logf("worker[%d]: died on unit %d: %v", slot, j.index, w.readErr())
					r.requeue(j)
					return false
				}
				resetTimer(deadline, r.opts.HeartbeatTimeout)
				switch fr.typ {
				case msgHeartbeat:
					beat()
					continue
				case msgError:
					r.abort(fmt.Errorf("worker[%d]: %s", slot, fr.payload))
					return true
				case msgVerdict:
					v, err := decodeVerdict(fr.payload)
					if err != nil {
						r.opts.logf("worker[%d]: %v", slot, err)
						r.requeue(j)
						return false
					}
					if int(v.Unit) != j.index {
						r.opts.logf("worker[%d]: verdict for unit %d, expected %d", slot, v.Unit, j.index)
						r.requeue(j)
						return false
					}
					if m := r.opts.Metrics; m != nil && m.DeliveryLatency != nil {
						m.DeliveryLatency.ObserveSince(sent)
					}
					r.finish(Result{Index: j.index, Outcome: v.Outcome, Payload: v.Payload})
					if v.Last {
						r.opts.logf("worker[%d]: self-recycled after unit %d (memory quota)", slot, j.index)
						return true
					}
					break await
				default:
					r.opts.logf("worker[%d]: unexpected frame type %d", slot, fr.typ)
					r.requeue(j)
					return false
				}
			}
		}
	}
}

// frame is one received frame.
type frame struct {
	typ     uint8
	payload []byte
}

// liveWorker is one running subprocess with its reader pump.
type liveWorker struct {
	cmd    *exec.Cmd
	stdin  io.WriteCloser
	frames chan frame
	units  int // unit count from the worker's ready frame
	met    *telemetry.WorkerMetrics

	mu   sync.Mutex
	rerr error

	killOnce sync.Once
}

// spawn starts a worker and completes the supervisor half of the handshake
// opening (hello is sent; ready is awaited by the caller).
func spawn(opts *Options) (*liveWorker, error) {
	cmd := opts.Command()
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		stdin.Close()
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		stdin.Close()
		return nil, err
	}
	if opts.Metrics != nil {
		opts.Metrics.Spawns.Inc()
	}
	var in io.WriteCloser = stdin
	var out io.Reader = stdout
	if opts.WrapPipes != nil {
		in, out = opts.WrapPipes(stdin, stdout)
	}
	w := &liveWorker{cmd: cmd, stdin: in, frames: make(chan frame, 16), met: opts.Metrics}
	go w.pump(out)

	var memQuota uint64
	if opts.MemQuota > 0 {
		memQuota = uint64(opts.MemQuota)
	}
	if err := WriteFrameCRC(in, msgHello, encodeHello(hello{
		Version:           ProtocolVersion,
		HeartbeatInterval: opts.HeartbeatInterval,
		MemQuota:          memQuota,
		Spec:              opts.Spec,
	})); err != nil {
		w.kill()
		return nil, err
	}
	return w, nil
}

// pump reads frames off the worker's stdout into the channel. Heartbeats
// are dropped when the channel is full (they carry no data; losing one must
// not wedge the reader behind a slow supervisor).
func (w *liveWorker) pump(r io.Reader) {
	br := bufio.NewReader(r)
	for {
		typ, payload, err := ReadFrameCRC(br)
		if err != nil {
			if w.met != nil && errors.Is(err, ErrFrameCRC) {
				w.met.FramesRejected.Inc()
			}
			w.mu.Lock()
			w.rerr = err
			w.mu.Unlock()
			close(w.frames)
			return
		}
		if typ == msgHeartbeat {
			select {
			case w.frames <- frame{typ: typ}:
			default:
			}
			continue
		}
		w.frames <- frame{typ: typ, payload: payload}
	}
}

func (w *liveWorker) readErr() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.rerr == nil || w.rerr == io.EOF {
		return errors.New("worker process exited")
	}
	return w.rerr
}

func (w *liveWorker) send(typ uint8, payload []byte) error {
	return WriteFrameCRC(w.stdin, typ, payload)
}

// kill tears the worker down unconditionally and reaps it. Safe to call
// multiple times and after a clean exit.
func (w *liveWorker) kill() {
	w.killOnce.Do(func() {
		w.stdin.Close()
		if w.cmd.Process != nil {
			_ = w.cmd.Process.Kill()
		}
		_ = w.cmd.Wait()
		// Drain so the pump goroutine can exit even if it was blocked
		// sending a non-heartbeat frame.
		for range w.frames {
		}
	})
}

func nextBackoff(d, max time.Duration) time.Duration {
	d *= 2
	if d > max {
		return max
	}
	return d
}

// sleepCtx sleeps for d unless the context or the run finishes first; it
// reports whether the caller should keep going.
func sleepCtx(ctx context.Context, done <-chan struct{}, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-done:
		return false
	case <-t.C:
		return true
	}
}

// resetTimer safely re-arms a timer that may have fired or be pending.
func resetTimer(t *time.Timer, d time.Duration) {
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
	t.Reset(d)
}
