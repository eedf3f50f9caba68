package main

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"ptlactive/client"
	"ptlactive/internal/adb"
	"ptlactive/internal/server"
)

// dial opens a client session over a byte-counting connection.
func dial(addr string) (*client.Client, *countConn, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, nil, err
	}
	cc := &countConn{Conn: conn}
	cli, err := client.New(cc)
	if err != nil {
		return nil, nil, err
	}
	return cli, cc, nil
}

// registerRules registers the workload's rules through the wire, as an
// operator would.
func registerRules(cli *client.Client, rules []ruleDef) error {
	for _, r := range rules {
		var err error
		if r.Constraint {
			err = cli.AddConstraint(r.Name, r.Cond)
		} else {
			err = cli.AddTrigger(r.Name, r.Cond)
		}
		if err != nil {
			return fmt.Errorf("register %s: %w", r.Name, err)
		}
	}
	return nil
}

// served is a listening server and the goroutine serving it.
type served struct {
	srv  *server.Server
	addr string
	done chan struct{}
}

func serve(cfg server.Config) (*served, error) {
	srv, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Shutdown(context.Background())
		return nil, err
	}
	s := &served{srv: srv, addr: ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		_ = srv.Serve(ln) // returns ErrServerClosed after Shutdown
	}()
	return s, nil
}

// shutdown drains the server (closing its backend) and waits for Serve.
func (s *served) shutdown() error {
	ctx, cancel := context.WithTimeout(context.Background(), DrainTimeout)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	<-s.done
	return err
}

// received is one firing as the subscriber saw it.
type received struct {
	key firingKey
	seq int
	at  int64 // clock ns
}

// subscriber drains a firing subscription, stamping each arrival.
type subscriber struct {
	mu   sync.Mutex
	got  []received
	gaps int
	done chan struct{}
}

func startSubscriber(sub *client.Subscription, clock *tracer) *subscriber {
	s := &subscriber{done: make(chan struct{})}
	go func() {
		defer close(s.done)
		for ev := range sub.C {
			at := clock.now()
			s.mu.Lock()
			if ev.Gap > 0 {
				s.gaps += ev.Gap
			} else {
				s.got = append(s.got, received{key: keyOf(ev.Firing), seq: ev.Seq, at: at})
			}
			s.mu.Unlock()
		}
	}()
	return s
}

// waitFor blocks until n firings (or gaps) arrived or the drain timeout
// passes; it reports whether they all arrived.
func (s *subscriber) waitFor(n int) bool {
	deadline := time.Now().Add(DrainTimeout)
	for {
		s.mu.Lock()
		have := len(s.got) + s.gaps
		s.mu.Unlock()
		if have >= n {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
}

func (s *subscriber) snapshot() ([]received, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]received(nil), s.got...), s.gaps
}

// single is one server over one engine with a committer and a
// subscriber session: the ingest and monitor deployment.
type single struct {
	eng   *adb.Engine
	be    *server.EngineBackend
	tap   *tapBackend
	srv   *served
	cli   *client.Client
	cc    *countConn
	sub   *client.Client
	sc    *countConn
	subs  *subscriber
	clock *tracer
}

// openSingle serves eng, registers the rules through the committer
// session and subscribes the second session from firing 0.
func openSingle(eng *adb.Engine, rules []ruleDef, clock, tr *tracer) (*single, error) {
	n := &single{eng: eng, be: server.NewEngineBackend(eng), clock: clock}
	n.tap = &tapBackend{Backend: n.be, clock: clock, tr: tr, span: spanBackend}
	var err error
	if n.srv, err = serve(server.Config{Backend: n.tap}); err != nil {
		n.be.Close()
		return nil, err
	}
	fail := func(err error) (*single, error) {
		n.close()
		return nil, err
	}
	if n.cli, n.cc, err = dial(n.srv.addr); err != nil {
		return fail(err)
	}
	if err := registerRules(n.cli, rules); err != nil {
		return fail(err)
	}
	if n.sub, n.sc, err = dial(n.srv.addr); err != nil {
		return fail(err)
	}
	s, err := n.sub.Subscribe(0)
	if err != nil {
		return fail(err)
	}
	n.subs = startSubscriber(s, clock)
	return n, nil
}

// close ends both sessions and drains the server, which closes the engine.
func (n *single) close() error {
	if n.cli != nil {
		n.cli.Close()
	}
	if n.sub != nil {
		n.sub.Close()
	}
	err := n.srv.shutdown()
	if n.subs != nil {
		<-n.subs.done
	}
	return err
}
