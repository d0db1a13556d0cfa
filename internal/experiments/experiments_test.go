package experiments

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"extbaselines", "extkernel", "extpersonal", "extsampler", "extwire",
		"fig1", "fig10", "fig11", "fig12", "fig2", "fig4", "fig6", "fig8",
		"fig9a", "fig9b", "fig9c", "fig9d", "table1", "table2", "table3", "theory",
	}
	got := List()
	if len(got) != len(want) {
		t.Fatalf("registry has %d experiments: %v", len(got), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("List() = %v, want %v", got, want)
		}
	}
	for _, id := range want {
		if Title(id) == "" {
			t.Fatalf("experiment %s has no title", id)
		}
		if _, err := Get(id); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := Get("nope"); err == nil {
		t.Fatal("unknown id accepted")
	}
}

func TestParseScale(t *testing.T) {
	for _, s := range []string{"bench", "fast", "paper"} {
		if _, err := ParseScale(s); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ParseScale("huge"); err == nil {
		t.Fatal("bad scale accepted")
	}
}

func TestResultRendering(t *testing.T) {
	r := &Result{ID: "x", Title: "demo", Header: []string{"a", "bb"}}
	r.AddRow("1", "2")
	r.AddRow("333", "4")
	r.Note("hello %d", 7)
	var buf bytes.Buffer
	if err := r.Write(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"== x: demo ==", "a    bb", "333  4", "note: hello 7"} {
		if !strings.Contains(out, want) {
			t.Fatalf("text output missing %q:\n%s", want, out)
		}
	}
	buf.Reset()
	if err := r.CSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "a,bb\n1,2\n") {
		t.Fatalf("CSV output: %q", buf.String())
	}
}

func TestNewTaskAllDatasets(t *testing.T) {
	for _, d := range []string{"mnist", "cifar", "sent140", "femnist"} {
		task, err := NewTask(d, ScaleBench, 1)
		if err != nil {
			t.Fatal(err)
		}
		if task.Train.Len() == 0 || task.Test.Len() == 0 {
			t.Fatalf("%s: empty datasets", d)
		}
		if task.Rounds() <= 0 {
			t.Fatalf("%s: no round budget", d)
		}
		// The builder must produce a model compatible with the data.
		net := task.Builder(1)
		x, y := task.Train.Gather([]int{0, 1})
		logits := net.Predict(x)
		if logits.Dim(1) != task.Train.Classes {
			t.Fatalf("%s: %d logits for %d classes", d, logits.Dim(1), task.Train.Classes)
		}
		_ = y
	}
	if _, err := NewTask("imagenet", ScaleBench, 1); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

func TestShardsSettings(t *testing.T) {
	task, err := NewTask("mnist", ScaleBench, 1)
	if err != nil {
		t.Fatal(err)
	}
	p := For(ScaleBench)
	if got := len(task.Shards(Silo, 0, 1)); got != p.SiloClients {
		t.Fatalf("silo shards = %d", got)
	}
	if got := len(task.Shards(Device, 0.5, 1)); got != p.DeviceClients {
		t.Fatalf("device shards = %d", got)
	}
	sent, err := NewTask("sent140", ScaleBench, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(sent.Shards(Device, Natural, 1)); got != p.DeviceClients {
		t.Fatalf("natural shards = %d", got)
	}
}

func TestMethodsRoster(t *testing.T) {
	ms := Methods()
	if len(ms) != 6 {
		t.Fatalf("expected 6 methods, got %d", len(ms))
	}
	names := []string{"FedAvg", "FedProx", "Scaffold", "q-FedAvg", "rFedAvg", "rFedAvg+"}
	for i, m := range ms {
		if m.Name != names[i] {
			t.Fatalf("method %d = %s, want %s", i, m.Name, names[i])
		}
	}
	sel := MethodsByName("rFedAvg+", "FedAvg")
	if len(sel) != 2 || sel[0].Name != "rFedAvg+" || sel[1].Name != "FedAvg" {
		t.Fatalf("MethodsByName: %+v", sel)
	}
}

// TestRunExperimentsSmoke executes the cheapest experiments end-to-end at
// bench scale to keep every runner's plumbing covered.
func TestRunExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke tests are not short")
	}
	for _, id := range []string{"table3", "theory", "fig12", "fig9b", "extsampler"} {
		run, err := Get(id)
		if err != nil {
			t.Fatal(err)
		}
		res, err := run(ScaleBench, io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(res.Rows) == 0 {
			t.Fatalf("%s produced no rows", id)
		}
		var buf bytes.Buffer
		if err := res.Write(&buf); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRunOneProducesHistory(t *testing.T) {
	task, err := NewTask("mnist", ScaleBench, 1)
	if err != nil {
		t.Fatal(err)
	}
	h := RunOne(task, Silo, 0, MethodsByName("rFedAvg+")[0], 1, 2)
	if len(h.Rounds) != 2 {
		t.Fatalf("history has %d rounds", len(h.Rounds))
	}
	if h.Algorithm != "rFedAvg+" {
		t.Fatalf("algorithm = %s", h.Algorithm)
	}
}

// TestPaperScaleConfigsConstruct verifies the paper-sized presets assemble
// valid tasks and partitions (without running training).
func TestPaperScaleConfigsConstruct(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale data generation is not short")
	}
	for _, d := range []string{"mnist", "sent140"} {
		task, err := NewTask(d, ScalePaper, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, setting := range []Setting{Silo, Device} {
			sim := 0.0
			if d == "sent140" {
				sim = Natural
			}
			shards := task.Shards(setting, sim, 1)
			want := task.P.SiloClients
			if setting == Device {
				want = task.P.DeviceClients
			}
			if len(shards) != want {
				t.Fatalf("%s %v: %d shards, want %d", d, setting, len(shards), want)
			}
			cfg := task.Config(setting, 1, 0)
			if cfg.LocalSteps <= 0 || cfg.BatchSize <= 0 {
				t.Fatalf("%s %v: bad config %+v", d, setting, cfg)
			}
		}
	}
}

// TestSettingString covers the labels used in logs and tables.
func TestSettingString(t *testing.T) {
	if Silo.String() != "cross-silo" || Device.String() != "cross-device" {
		t.Fatal("setting labels")
	}
}
