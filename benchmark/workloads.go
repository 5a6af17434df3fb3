package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"
)

// timed runs one call into the system under a child span and returns
// how long it took.
func timed(tr *tracer, parent *spanRef, op, name string, fn func() error) (time.Duration, error) {
	sp := tr.start(parent, op, name)
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	sp.end()
	if err != nil {
		err = fmt.Errorf("%s: %w", name, err)
	}
	return d, err
}

// ---------------------------------------------------------------------------
// load.stream: the document's whole write life, one cycle per operation

type loadStream struct {
	r      *run
	n      int
	stored int64
	// snapshot is snapshot.db's size after the last cycle's checkpoint.
	snapshot int64
	eng      engineCounters
	dev      ioSnapshot
}

func (w *loadStream) setup() (setupInfo, error) {
	// The warm-up is one full cycle; its heap sample is taken while the
	// loaded, checkpointed store is still open.
	return w.cycle(nil, recorder{}, true)
}

func (w *loadStream) teardown() error { return nil }
func (w *loadStream) finish() error   { return nil }

func (w *loadStream) storedBytes() int64 { return w.stored }

func (w *loadStream) counters() (engineCounters, ioSnapshot) { return w.eng, w.dev }

func (w *loadStream) clients() []clientFunc {
	return []clientFunc{func(tr *tracer, rec recorder, _ int) {
		_, err := w.cycle(tr, rec, false)
		w.r.count(err)
	}}
}

// cycle is fresh directory → stream-load → checkpoint → close → reopen
// → first query → reconstruct → compare. Its latency is the time inside
// the system's calls; comparing and deleting are the benchmark's own.
func (w *loadStream) cycle(tr *tracer, rec recorder, sample bool) (info setupInfo, err error) {
	in := w.r.in
	dir, err := w.r.newDir()
	if err != nil {
		return info, err
	}
	defer os.RemoveAll(dir)
	w.n++
	op := fmt.Sprintf("cycle-%d", w.n)
	root := tr.start(nil, op, rootSpan)
	defer root.end()

	var d *durable
	defer func() {
		if d != nil {
			err = errors.Join(err, d.close())
		}
	}()
	tOpen, err := timed(tr, root, op, "open", func() (e error) {
		d, e = openDurable(interval, dir, durableOpts{})
		return e
	})
	if err != nil {
		return info, err
	}
	tLoad, err := timed(tr, root, op, "load", func() error { return d.loadStream(in.xml) })
	if err != nil {
		return info, err
	}
	tCkpt, err := timed(tr, root, op, "checkpoint", d.checkpoint)
	if err != nil {
		return info, err
	}
	if w.stored, err = dirBytes(dir); err != nil {
		return info, err
	}
	if fi, err := os.Stat(filepath.Join(dir, "snapshot.db")); err == nil {
		w.snapshot = fi.Size()
	}
	if sample {
		info = sampleHeap()
	}
	w.eng, w.dev = w.eng.add(d.counters()), w.dev.add(d.io.snapshot())
	tClose, err := timed(tr, root, op, "close", d.close)
	d = nil
	if err != nil {
		return info, err
	}

	tReopen, err := timed(tr, root, op, "reopen", func() (e error) {
		d, e = openDurable(interval, dir, durableOpts{})
		return e
	})
	if err != nil {
		return info, err
	}
	var ids []int64
	tFirst, err := timed(tr, root, op, "first_query", func() (e error) {
		ids, e = d.query(in.queries[0])
		return e
	})
	if err != nil {
		return info, err
	}
	var out bytes.Buffer
	out.Grow(len(in.xml))
	tWrite, err := timed(tr, root, op, "write_xml", func() error { return d.writeXML(&out) })
	if err != nil {
		return info, err
	}
	root.end()
	w.eng, w.dev = w.eng.add(d.counters()), w.dev.add(d.io.snapshot())
	if tr != nil {
		// WriteXML is Reconstruct then Serialize; the traced run repeats
		// the two halves outside the cycle to tell them apart.
		tRec, tSer, err := d.reconstructAndSerialize(io.Discard)
		if err != nil {
			return info, err
		}
		rec.add("reconstruct", tRec)
		rec.add("serialize", tSer)
	}

	rec.add("op", tOpen+tLoad+tCkpt+tClose+tReopen+tFirst+tWrite)
	rec.add("load", tLoad)
	rec.add("checkpoint", tCkpt)
	rec.add("recover", tReopen)
	rec.add("reopen", tReopen+tFirst)
	rec.add("write_xml", tWrite)
	if err := in.checkIDs(0, ids); err != nil {
		return info, fmt.Errorf("after reopen: %w", err)
	}
	if out.String() != in.xml {
		return info, fmt.Errorf("reconstructed document (%d bytes) differs from the input (%d bytes)", out.Len(), len(in.xml))
	}
	return info, nil
}

// ---------------------------------------------------------------------------
// A loaded, checkpointed durable store behind the front door: what the
// query and update workloads set up

type servedStore struct {
	dir    string
	d      *durable
	door   *door
	stored int64 // bytes in dir after the checkpoint
}

func (s *servedStore) open(r *run, k scheme, o durableOpts) (err error) {
	if s.dir, err = r.newDir(); err != nil {
		return err
	}
	if s.d, err = openDurable(k, s.dir, o); err != nil {
		return err
	}
	if err = s.d.loadStream(r.in.xml); err != nil {
		return fmt.Errorf("load: %w", err)
	}
	if err = s.d.checkpoint(); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	if s.stored, err = dirBytes(s.dir); err != nil {
		return err
	}
	s.door, err = serve(s.d)
	return err
}

// stop shuts the server down, which closes the store.
func (s *servedStore) stop() error {
	var err error
	if s.door != nil {
		err = s.door.shutdown()
	} else if s.d != nil {
		err = s.d.close()
	}
	s.door, s.d = nil, nil
	return err
}

func (s *servedStore) teardown() error { return errors.Join(s.stop(), os.RemoveAll(s.dir)) }

func (s *servedStore) storedBytes() int64 { return s.stored }

func (s *servedStore) counters() (engineCounters, ioSnapshot) {
	return s.d.counters(), s.d.io.snapshot()
}

// ---------------------------------------------------------------------------
// query.hot and query.paged: the F1 round over HTTP

type queryMix struct {
	r         *run
	poolPages int

	servedStore
	https []*httpClient
}

func (w *queryMix) setup() (setupInfo, error) {
	if err := w.open(w.r, interval, durableOpts{poolPages: w.poolPages}); err != nil {
		return setupInfo{}, err
	}
	for c := 0; c < clients; c++ {
		w.https = append(w.https, w.door.httpClient())
	}
	// Two full rounds per client settle the translation and plan caches
	// and the lazily adopted pages.
	fns := w.clients()
	var wg sync.WaitGroup
	for _, fn := range fns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := 0; it < 2; it++ {
				fn(nil, recorder{}, it)
			}
		}()
	}
	wg.Wait()
	return sampleHeap(), nil
}

func (w *queryMix) teardown() error {
	for _, h := range w.https {
		h.close()
	}
	w.https = nil
	return w.servedStore.teardown()
}

func (w *queryMix) finish() error { return nil }

func (w *queryMix) clients() []clientFunc {
	fns := make([]clientFunc, len(w.https))
	for c, h := range w.https {
		ask := w.checked(h.query)
		fns[c] = func(tr *tracer, rec recorder, it int) {
			w.r.count(w.round(tr, rec, fmt.Sprintf("round-c%d-%d", c, it), ask))
		}
	}
	return fns
}

// checked turns a query function into one that also compares the
// answer with the DOM's.
func (w *queryMix) checked(q func(string) ([]int64, error)) func(int) error {
	return func(class int) error {
		ids, err := q(w.r.in.queries[class])
		if err != nil {
			return fmt.Errorf("q%d: %w", class+1, err)
		}
		return w.r.in.checkIDs(class, ids)
	}
}

// round asks the six classes in sequence. It keeps going after a wrong
// answer so a failing class costs one failed round, not a shorter one.
func (w *queryMix) round(tr *tracer, rec recorder, op string, ask func(class int) error) error {
	root := tr.start(nil, op, rootSpan)
	var total time.Duration
	var errs []error
	for class := range w.r.in.queries {
		name := fmt.Sprintf("q%d", class+1)
		d, err := timed(tr, root, op, name, func() error { return ask(class) })
		rec.add(name, d)
		total += d
		errs = append(errs, err)
	}
	root.end()
	rec.add("op", total)
	return errors.Join(errs...)
}

// ---------------------------------------------------------------------------
// update.ordered: one durable writer beside one HTTP reader

// insertPlan scripts ordered inserts under parentQuery and remembers the
// acknowledged ones. Each gap between two original children is used
// once per pass, in seeded order, so Dewey's midpoint labels never run
// out; after six passes inserts append at the end.
type insertPlan struct {
	in    *inputs
	model []int // current children: original index, or -1 for an inserted subtree
	acked []ackedInsert
	n     int
}

type ackedInsert struct{ position, frag int }

func newInsertPlan(in *inputs) *insertPlan {
	p := &insertPlan{in: in, model: make([]int, in.nOrig)}
	for i := range p.model {
		p.model[i] = i
	}
	return p
}

func (p *insertPlan) next() ackedInsert {
	a := ackedInsert{position: len(p.model), frag: p.n % len(p.in.frags)}
	if p.n < 6*len(p.in.gaps) {
		if i := slices.Index(p.model, p.in.gaps[p.n%len(p.in.gaps)]); i >= 0 {
			a.position = i
		}
	}
	p.n++
	return a
}

func (p *insertPlan) ack(a ackedInsert) {
	p.model = slices.Insert(p.model, a.position, -1)
	p.acked = append(p.acked, a)
}

// insertInto performs the next scripted insert and records it once
// acknowledged.
func (p *insertPlan) insertInto(insert func(parentID int64, position int, fragment []byte) error) error {
	a := p.next()
	if err := insert(p.in.parentID, a.position, p.in.frags[a.frag]); err != nil {
		return fmt.Errorf("insert at position %d: %w", a.position, err)
	}
	p.ack(a)
	return nil
}

// expected replays the acknowledged inserts on the DOM.
func (p *insertPlan) expected() (string, error) {
	d, err := parseDOM(p.in.xml)
	if err != nil {
		return "", err
	}
	for _, a := range p.acked {
		if err := d.insertChild(parentQuery, a.position, p.in.frags[a.frag]); err != nil {
			return "", err
		}
	}
	return d.serialize(), nil
}

// verify requires the store to publish exactly the replayed document.
func (p *insertPlan) verify(s *store) error {
	want, err := p.expected()
	if err != nil {
		return err
	}
	var got bytes.Buffer
	if err := s.writeXML(&got); err != nil {
		return err
	}
	if got.String() != want {
		return fmt.Errorf("stored document (%d bytes) differs from the DOM replay of %d acknowledged inserts (%d bytes)",
			got.Len(), len(p.acked), len(want))
	}
	return nil
}

type updateOrdered struct {
	r *run

	servedStore
	reader *httpClient
	plan   *insertPlan
}

func (w *updateOrdered) setup() (setupInfo, error) {
	w.plan = newInsertPlan(w.r.in)
	if err := w.open(w.r, dewey, durableOpts{}); err != nil {
		return setupInfo{}, err
	}
	w.reader = w.door.httpClient()
	for it, fns := 0, w.clients(); it < 2; it++ {
		for _, fn := range fns {
			fn(nil, recorder{}, it)
		}
	}
	return sampleHeap(), nil
}

func (w *updateOrdered) teardown() error {
	if w.reader != nil {
		w.reader.close()
		w.reader = nil
	}
	return w.servedStore.teardown()
}

func (w *updateOrdered) clients() []clientFunc {
	writer := func(tr *tracer, rec recorder, it int) {
		op := fmt.Sprintf("insert-%d", it)
		root := tr.start(nil, op, rootSpan)
		d, err := timed(tr, root, op, "insert_xml", func() error { return w.plan.insertInto(w.d.insert) })
		root.end()
		rec.add("op", d)
		w.r.count(err)
	}
	reader := func(_ *tracer, rec recorder, _ int) {
		t0 := time.Now()
		ids, err := w.reader.query(w.r.in.queries[readClass])
		rec.add("read", time.Since(t0))
		if err == nil {
			err = w.r.in.checkIDs(readClass, ids)
		}
		w.r.count(err)
	}
	return []clientFunc{writer, reader}
}

// finish restarts the store and requires the document to equal the DOM
// replay of every acknowledged insert, then repeats a short script on
// the crash-simulating disk, where losing power must lose none of them.
func (w *updateOrdered) finish() error {
	if err := w.stop(); err != nil {
		return err
	}
	d, err := openDurable(dewey, w.dir, durableOpts{})
	if err != nil {
		return fmt.Errorf("reopening after the window: %w", err)
	}
	w.d = d
	w.r.count(w.plan.verify(&d.store))
	return w.powerLossPass()
}

const powerLossInserts = 12

func (w *updateOrdered) powerLossPass() error {
	in, err := makeInputs(0.02, w.r.cfg.seed)
	if err != nil {
		return err
	}
	disk := newMemDisk()
	d, err := disk.open(dewey)
	if err != nil {
		return err
	}
	defer d.close()
	if err := d.loadStream(in.xml); err != nil {
		return err
	}
	plan := newInsertPlan(in)
	for i := 1; i <= powerLossInserts; i++ {
		if err := plan.insertInto(d.insert); err != nil {
			return err
		}
		if i%4 != 0 {
			continue
		}
		// The store is not closed: the copy is what the disk holds at
		// the moment of the last acknowledgement.
		after, err := disk.powerLoss().open(dewey)
		if err != nil {
			w.r.count(fmt.Errorf("recovering after power loss at insert %d: %w", i, err))
			continue
		}
		w.r.count(plan.verify(&after.store))
		if err := after.close(); err != nil {
			return err
		}
	}
	return nil
}
