package replication

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/coherence"
	"repro/internal/msg"
	"repro/internal/obs"
	"repro/internal/semantics/webdoc"
	"repro/internal/strategy"
	"repro/internal/wal"
)

// assertSeriesMatchStats checks that every Stats field is registered as a
// {store, object} series and that each reads exactly what Stats() reports.
func assertSeriesMatchStats(t *testing.T, reg *obs.Registry, o *Object) {
	t.Helper()
	stats := reflect.ValueOf(o.Stats())
	byName := make(map[string]uint64, stats.NumField())
	for i := 0; i < stats.NumField(); i++ {
		byName[stats.Type().Field(i).Tag.Get("obs")] = stats.Field(i).Uint()
	}
	seen := 0
	for _, p := range reg.Snapshot() {
		if p.Hist != nil || p.Labels["object"] != string(o.object) {
			continue
		}
		want, ok := byName[p.Name]
		if !ok {
			t.Errorf("series %s is no Stats field", p.Name)
			continue
		}
		seen++
		if uint64(p.Value) != want {
			t.Errorf("%s = %v, Stats says %d", p.Name, p.Value, want)
		}
	}
	if seen != stats.NumField() {
		t.Errorf("%d of %d Stats fields are registered", seen, stats.NumField())
	}
}

// TestStatsAndSeriesAgree drives the events that used to be counted twice —
// and the ones that were counted on one side only: recovery demands and WAL
// replay reached Stats but never globe_demands_sent_total and
// globe_updates_applied_total — then compares the two views field by field.
func TestStatsAndSeriesAgree(t *testing.T) {
	cache := func(env *fakeEnv, ob *obs.Observer, tune Tuning, resolve func() []ParentCandidate) *Object {
		tune.ReadTimeout = time.Second
		o, err := New(Config{
			Env: env, Object: "obj", Self: 7, Addr: "self", Role: RoleClientInitiated,
			Parent: "mirror", Strat: strategy.Conference(time.Hour),
			Session: []coherence.ClientModel{coherence.ReadYourWrites},
			Tuning:  tune, ResolveParent: resolve, Obs: ob,
		})
		if err != nil {
			t.Fatal(err)
		}
		return o
	}
	scenarios := []struct {
		name string
		run  func(t *testing.T, env *fakeEnv, ob *obs.Observer) *Object
		want func(Stats) bool // the scenario happened at all
	}{
		{"writes", func(t *testing.T, env *fakeEnv, ob *obs.Observer) *Object {
			o, err := New(Config{
				Env: env, Object: "obj", Self: 1, Addr: "self", Role: RolePermanent,
				Strat: immediatePushStrategy(), Obs: ob,
			})
			if err != nil {
				t.Fatal(err)
			}
			o.Handle(&msg.Message{Kind: msg.KindSubscribe, Object: "obj", From: "kid"})
			for i := uint64(1); i <= 3; i++ {
				o.Handle(writeMsg(1, i, "p", "x"))
			}
			o.Handle(writeMsg(1, 3, "p", "x")) // an ack-loss retry: acked, not admitted
			return o
		}, func(s Stats) bool {
			return s.WritesAdmitted == 3 && s.WritesAcked == 4 && s.UpdatesApplied == 3 && s.UpdatesDisseminated == 3
		}},
		{"parked read", func(t *testing.T, env *fakeEnv, ob *obs.Observer) *Object {
			o := cache(env, ob, Tuning{}, nil)
			o.Handle(&msg.Message{
				Kind: msg.KindReadRequest, Object: "obj", From: "reader", Client: 1,
				VVec: vecOf(1, 1),
				Inv:  msg.Invocation{Method: webdoc.MethodGetPage, Page: "p"},
			})
			up := writeMsg(1, 1, "p", "x")
			up.Kind, up.From = msg.KindUpdate, "mirror"
			o.Handle(up)
			return o
		}, func(s Stats) bool {
			return s.ReadsParked == 1 && s.ReadsServed == 1 && s.ReqViolations == 1 && s.DemandsSent == 1
		}},
		{"digest-gap demand", func(t *testing.T, env *fakeEnv, ob *obs.Observer) *Object {
			o := cache(env, ob, Tuning{}, nil)
			o.Handle(&msg.Message{
				Kind: msg.KindDigest, Object: "obj", From: "mirror",
				VVec: vecOf(1, 3),
			})
			return o
		}, func(s Stats) bool { return s.DigestDemands == 1 && s.DemandsSent == 1 }},
		{"re-parent", func(t *testing.T, env *fakeEnv, ob *obs.Observer) *Object {
			o := cache(env, ob, Tuning{DigestInterval: 100 * time.Millisecond, ReparentAfter: 2},
				func() []ParentCandidate { return []ParentCandidate{{Addr: "perm", Role: RolePermanent}} })
			o.SubscribeToParent()
			o.Handle(&msg.Message{Kind: msg.KindSubscribeAck, Object: "obj", From: "mirror"})
			env.clk.Advance(500 * time.Millisecond)
			o.Handle(&msg.Message{Kind: msg.KindSubscribeAck, Object: "obj", From: "perm"})
			return o
		}, func(s Stats) bool { return s.ReparentsDone == 1 && s.ParentMissedDigests >= 2 }},
		{"WAL recover with children", func(t *testing.T, env *fakeEnv, ob *obs.Observer) *Object {
			dir := t.TempDir()
			wlog, _, err := wal.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			if err := wlog.AppendChild("kid", false); err != nil {
				t.Fatal(err)
			}
			if err := wlog.AppendUpdate(new(Object).updateFromMsg(writeMsg(1, 1, "p", "x"))); err != nil {
				t.Fatal(err)
			}
			if err := wlog.Close(); err != nil {
				t.Fatal(err)
			}
			wlog, rec, err := wal.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			o, err := New(Config{
				Env: env, Object: "obj", Self: 1, Addr: "self", Role: RolePermanent,
				Strat: strategy.Conference(time.Hour), WAL: wlog, Recovered: rec, Obs: ob,
			})
			if err != nil {
				t.Fatal(err)
			}
			env.clk.Advance(defaultDemandRetry) // one recovery re-demand
			return o
		}, func(s Stats) bool {
			return s.Recoveries == 1 && s.WALReplayed == 1 && s.UpdatesApplied == 1 && s.DemandsSent == 2
		}},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			o := sc.run(t, newFakeEnv(), &obs.Observer{Reg: reg})
			defer o.Close()
			if !sc.want(o.Stats()) {
				t.Fatalf("scenario did not run as intended: %+v", o.Stats())
			}
			assertSeriesMatchStats(t, reg, o)
		})
	}
}

// TestApplyFailureIsNotAFailedRead: an operation the semantics object rejects
// is counted under its own name; ReadsFailed belongs to refused reads.
func TestApplyFailureIsNotAFailedRead(t *testing.T) {
	env := newFakeEnv()
	o := newObj(t, env, RolePermanent, strategy.Conference(time.Hour), "")
	bad := writeMsg(1, 1, "p", "x")
	bad.Inv.Method = 0x7FFF // in no semantics table
	o.Handle(bad)
	if acks := env.takeSent(msg.KindWriteReply); len(acks) != 1 || acks[0].Status != msg.StatusOK {
		t.Fatalf("a rejected op is still ordered and acked: %+v", acks)
	}
	if s := o.Stats(); s.ApplyFailed != 1 || s.ReadsFailed != 0 || s.UpdatesApplied != 1 {
		t.Fatalf("ApplyFailed = %d, ReadsFailed = %d, UpdatesApplied = %d; want 1, 0, 1",
			s.ApplyFailed, s.ReadsFailed, s.UpdatesApplied)
	}
}

// TestTuningDefaults pins the documented defaults to the one place they are
// spelled.
func TestTuningDefaults(t *testing.T) {
	want := Tuning{
		ReadTimeout: 5 * time.Second,
		DemandRetry: 50 * time.Millisecond,
		Durability: Durability{
			Fsync:         wal.SyncOff,
			SyncInterval:  100 * time.Millisecond,
			SnapshotEvery: 1024,
			RecoveryGrace: 2 * time.Second,
		},
	}
	if got := (Tuning{}).withDefaults(); got != want {
		t.Fatalf("zero Tuning resolves to %+v, want %+v", got, want)
	}
	set := Tuning{
		ReadTimeout: time.Second, DemandRetry: -1, DigestInterval: time.Minute, ReparentAfter: 3,
		Durability: Durability{Fsync: wal.SyncAlways, SyncInterval: time.Hour, SnapshotEvery: -1, RecoveryGrace: time.Minute},
	}
	got := set.withDefaults()
	if got.DemandRetry != 0 {
		t.Fatalf("negative DemandRetry resolves to %v, want 0 (retries disabled)", got.DemandRetry)
	}
	set.DemandRetry = 0
	if got != set {
		t.Fatalf("explicit values were not kept: %+v, want %+v", got, set)
	}
}
