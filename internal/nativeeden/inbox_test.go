package nativeeden

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"parhask/internal/eden/wire"
	"parhask/internal/graph"
	"parhask/internal/pe"
)

// The tests below hold a PE's lock on purpose: an Eden thread that
// blocks on a Go channel keeps its PE locked, exactly like a thread in
// a long computation. Their regression mode is a hang (a sender waiting
// for the receiver's lock), which the test binary's -timeout reports.

// TestInboxSendDoesNotWaitForComputingReceiver: the root's Send to PE 1
// returns while PE 1's only thread still holds its lock.
func TestInboxSendDoesNotWaitForComputingReceiver(t *testing.T) {
	res := runN(t, NewConfig(2), func(p pe.Ctx) graph.Value {
		reqIn, reqOut := p.NewChan(1)
		repIn, repOut := p.NewChan(0)
		holding, sent := make(chan struct{}), make(chan struct{})
		p.Spawn(1, "busy", func(w pe.Ctx) {
			close(holding)
			<-sent // PE 1 stays locked until the root's Send has returned
			w.Send(repOut, w.Receive(reqIn).(int)+1)
		})
		<-holding
		p.Send(reqOut, 41)
		close(sent)
		return p.Receive(repIn)
	})
	if res.Value != 42 {
		t.Fatalf("value = %v, want 42", res.Value)
	}
}

// TestInboxDeliverDoesNotWaitForComputingPE: the cluster reader's
// Deliver returns while the destination PE's thread holds its lock, so
// the reader stays free to answer heartbeats.
func TestInboxDeliverDoesNotWaitForComputingPE(t *testing.T) {
	r, err := NewRTS(Config{Cluster: &ClusterSpec{Rank: 0, Procs: 1, PerProc: 1}})
	if err != nil {
		t.Fatal(err)
	}
	holding, delivered := make(chan struct{}), make(chan struct{})
	type outcome struct {
		res *Result
		err error
	}
	done := make(chan outcome, 1)
	var chanID int64
	go func() {
		res, err := r.RunMain(func(p pe.Ctx) graph.Value {
			in, _ := p.NewChan(0)
			chanID = in.(Inport).id
			close(holding)
			<-delivered // PE 0 stays locked until Deliver has returned
			return p.Receive(in)
		})
		done <- outcome{res, err}
	}()
	<-holding
	payload, err := wire.Encode(7)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Deliver(MsgChanSend, chanID, 0, 0, payload); err != nil {
		t.Fatalf("Deliver: %v", err)
	}
	close(delivered)
	out := <-done
	if out.err != nil {
		t.Fatal(out.err)
	}
	if out.res.Value != 7 {
		t.Fatalf("value = %v, want 7", out.res.Value)
	}
	if got := out.res.PerPE[0].MsgsRecv; got != 1 {
		t.Fatalf("MsgsRecv = %d, want 1", got)
	}
}

// TestInboxQueuedMessageIsNotQuiescence: every thread is parked but a
// message still waits in an inbox; the watchdog must not call that a
// deadlock. The test posts without waking the PE and only wakes it
// after several quiescence windows have passed.
func TestInboxQueuedMessageIsNotQuiescence(t *testing.T) {
	cfg := NewConfig(2)
	cfg.Deadline = 10 * time.Second
	r, err := NewRTS(cfg)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	var chanID int64
	ready := make(chan struct{})
	go func() {
		res, err := r.RunMain(func(p pe.Ctx) graph.Value {
			in, _ := p.NewChan(0)
			chanID = in.(Inport).id
			close(ready)
			return p.Receive(in)
		})
		if err == nil && res.Value != 5 {
			err = fmt.Errorf("value = %v, want 5", res.Value)
		}
		done <- err
	}()
	<-ready
	for r.blocked.Load() != 1 {
		time.Sleep(time.Millisecond)
	}
	p0 := r.pes[0]
	p0.inboxMu.Lock()
	p0.inbox = append(p0.inbox, delivery{kind: MsgChanSend, id: chanID, src: 1, bytes: 16, msg: 5})
	p0.inboxMu.Unlock()
	time.Sleep(150 * time.Millisecond) // more than three quiescence windows
	if r.failed.Load() {
		t.Fatalf("watchdog failed the run while a message was queued: %v", r.err)
	}
	p0.notify()
	if err := awaitRun(t, done); err != nil {
		t.Fatal(err)
	}
}

// TestInboxStressFIFO: all-to-all streams plus one-value channels over
// more PEs than cores. Every (sender, stream) pair must arrive in send
// order, and a close must never overtake the elements sent before it.
func TestInboxStressFIFO(t *testing.T) {
	for _, pes := range []int{4, 8} {
		t.Run(fmt.Sprintf("pes=%d", pes), func(t *testing.T) {
			const elems = 40
			cfg := NewConfig(pes)
			cfg.Deadline = 30 * time.Second
			res := runN(t, cfg, func(p pe.Ctx) graph.Value {
				n := p.PEs()
				sIn, sOut := make([][]pe.StreamIn, n), make([][]pe.StreamOut, n)
				cIn, cOut := make([][]pe.Inport, n), make([][]pe.Outport, n)
				for src := 0; src < n; src++ {
					sIn[src], sOut[src] = make([]pe.StreamIn, n), make([]pe.StreamOut, n)
					cIn[src], cOut[src] = make([]pe.Inport, n), make([]pe.Outport, n)
					for dst := 0; dst < n; dst++ {
						sIn[src][dst], sOut[src][dst] = p.NewStream(dst)
						cIn[src][dst], cOut[src][dst] = p.NewChan(dst)
					}
				}
				repIn, repOut := make([]pe.Inport, n), make([]pe.Outport, n)
				for i := range repIn {
					repIn[i], repOut[i] = p.NewChan(0)
				}
				for me := 0; me < n; me++ {
					me := me
					p.Spawn(me, fmt.Sprintf("node%d", me), func(w pe.Ctx) {
						for k := 0; k < elems; k++ {
							for dst := 0; dst < n; dst++ {
								w.StreamSend(sOut[me][dst], int64(me*elems+k))
							}
						}
						for dst := 0; dst < n; dst++ {
							w.StreamClose(sOut[me][dst])
							w.Send(cOut[me][dst], int64(me))
						}
						var bad []string
						for src := 0; src < n; src++ {
							k := 0
							for ; ; k++ {
								v, ok := w.StreamRecv(sIn[src][me])
								if !ok {
									break
								}
								if want := int64(src*elems + k); v.(int64) != want {
									bad = append(bad, fmt.Sprintf("PE %d from %d: element %d = %d, want %d", me, src, k, v, want))
								}
							}
							if k != elems {
								bad = append(bad, fmt.Sprintf("PE %d from %d: close after %d elements, want %d", me, src, k, elems))
							}
							if v := w.Receive(cIn[src][me]).(int64); v != int64(src) {
								bad = append(bad, fmt.Sprintf("PE %d from %d: channel value %d", me, src, v))
							}
						}
						w.Send(repOut[me], strings.Join(bad, "; "))
					})
				}
				var bad []string
				for i := range repIn {
					if s := p.Receive(repIn[i]).(string); s != "" {
						bad = append(bad, s)
					}
				}
				return strings.Join(bad, "; ")
			})
			if res.Value != "" {
				t.Fatal(res.Value)
			}
			if want := int64(pes * pes * (elems + 2)); res.Stats.Messages != want+int64(pes) {
				t.Fatalf("messages = %d, want %d", res.Stats.Messages, want+int64(pes))
			}
			var recv int64
			for _, ps := range res.PerPE {
				recv += ps.MsgsRecv
			}
			if recv != res.Stats.Messages {
				t.Fatalf("received %d messages, sent %d", recv, res.Stats.Messages)
			}
		})
	}
}

// TestInboxResidentLaneDropsFailedJobInbox: a delivery still queued
// when a job fails must not reach the next job, even though the next
// job reuses the same channel ids on the same PEs.
func TestInboxResidentLaneDropsFailedJobInbox(t *testing.T) {
	l := NewResident(NewConfig(2))
	defer l.Close()
	_, err := l.RunJob(JobConfig{Deadline: 5 * time.Second}, func(p pe.Ctx) graph.Value {
		_, out := p.NewStream(1) // no thread ever runs on PE 1
		p.StreamSend(out, int64(99))
		panic("job fails with a delivery queued")
	})
	if err == nil {
		t.Fatal("failing job succeeded")
	}
	res, err := l.RunJob(JobConfig{Deadline: 5 * time.Second}, func(p pe.Ctx) graph.Value {
		in, out := p.NewStream(1) // the same stream id as the failed job's
		repIn, repOut := p.NewChan(0)
		p.Spawn(1, "reader", func(w pe.Ctx) {
			var got []graph.Value
			for _, v := range w.RecvAll(in) {
				got = append(got, v)
			}
			w.Send(repOut, fmt.Sprint(got))
		})
		p.SendAll(out, []graph.Value{int64(1), int64(2)})
		return p.Receive(repIn)
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != "[1 2]" {
		t.Fatalf("second job read %v, want [1 2]", res.Value)
	}
}
