package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// wallTime is the one field of a mode's report that varies run to run.
var wallTime = regexp.MustCompile(` +\(wall time [0-9.]+s\)`)

// TestModesMatchGoldens pins each mode's stdout to testdata goldens,
// captured from the standalone xgftgen, routegen and xgftsim commands
// these modes replaced (retired spellings mapped: random-perm is
// permutation, bitrev bit-reversal), with point's wall time stripped.
func TestModesMatchGoldens(t *testing.T) {
	const t88, t1610, t1616 = "2;8,8;1,8", "2;16,16;1,10", "2;16,16;1,16"
	for _, c := range []struct {
		golden string
		mode   func([]string, io.Writer) error
		args   []string
	}{
		{"routes-8-8-8-shift1", routes, []string{"-xgft", t88, "-pattern", "shift:1"}},
		{"routes-8-8-8-shift37", routes, []string{"-xgft", t88, "-pattern", "shift:37"}},
		{"routes-8-8-8-transpose", routes, []string{"-xgft", t88, "-pattern", "transpose"}},
		{"routes-8-8-8-tornado", routes, []string{"-xgft", t88, "-pattern", "tornado"}},
		{"routes-8-8-8-alltoall", routes, []string{"-xgft", t88, "-pattern", "alltoall"}},
		{"routes-8-8-8-bit-reversal", routes, []string{"-xgft", t88, "-pattern", "bit-reversal"}},
		{"routes-8-8-8-permutation", routes, []string{"-xgft", t88, "-pattern", "permutation"}},
		{"routes-16-16-10-wrf", routes, []string{"-xgft", t1610, "-pattern", "wrf"}},
		{"routes-16-16-10-cg", routes, []string{"-xgft", t1610, "-pattern", "cg"}},
		{"routes-16-16-10-cg-transpose", routes, []string{"-xgft", t1610, "-algo", "d-mod-k", "-pattern", "cg-transpose"}},
		// -bytes reaches every pattern, wrf included; every figure
		// printed is a count or a ratio, so the report does not move.
		{"routes-16-16-10-wrf", routes, []string{"-xgft", t1610, "-pattern", "wrf", "-bytes", "4096"}},
		{"routes-smoke-rncad", routes, []string{"-xgft", t88, "-algo", "r-NCA-d", "-pattern", "shift:1"}},
		{"routes-smoke-perm-seed3", routes, []string{"-xgft", t88, "-pattern", "permutation", "-seed", "3"}},
		{"routes-dump-perm-seed9", routes, []string{"-xgft", t88, "-pattern", "permutation", "-seed", "9", "-routes"}},
		{"routes-dump-wrf", routes, []string{"-xgft", t1616, "-algo", "r-NCA-u", "-seed", "7", "-pattern", "wrf", "-routes"}},
		{"routes-dump-cg-transpose", routes, []string{"-xgft", t1610, "-pattern", "cg-transpose", "-routes"}},
		{"routes-colored-shift37", routes, []string{"-xgft", t1616, "-algo", "colored", "-pattern", "shift:37"}},
		{"routes-colored-cg", routes, []string{"-xgft", t1610, "-algo", "colored", "-pattern", "cg"}},
		{"topo-3-4-4-4-labels1", topo, []string{"-xgft", "3;4,4,4;1,2,2", "-labels", "1"}},
		{"topo-kary4-n3", topo, []string{"-kary", "4", "-n", "3"}},
		{"topo-kary16-n2", topo, []string{"-kary", "16", "-n", "2"}},
		{"topo-2-16-16-10", topo, []string{"-xgft", t1610}},
		{"topo-smoke", topo, []string{"-xgft", "2;4,4;1,4"}},
		{"point-analytic-cg", point, []string{"-xgft", "2;16,16;1,8", "-algo", "d-mod-k", "-app", "cg", "-engine", "analytic"}},
		{"point-smoke-analytic", point, []string{"-xgft", "2;16,8;1,8", "-algo", "d-mod-k", "-app", "cg", "-engine", "analytic"}},
		{"point-smoke-venus", point, []string{"-xgft", "2;16,8;1,4", "-algo", "r-NCA-u", "-app", "cg", "-engine", "venus", "-bytes", "2048"}},
		{"point-grouped-wrf", point, []string{"-xgft", t1610, "-algo", "r-NCA-u", "-app", "wrf", "-engine", "grouped"}},
		{"point-simulated-cg", point, []string{"-xgft", t1610, "-algo", "r-NCA-u", "-app", "cg", "-bytes", "65536"}},
		{"point-simulated-cg-paper", point, []string{"-xgft", t1610, "-algo", "r-NCA-u", "-app", "cg"}},
		{"point-simulated-roundrobin", point, []string{"-xgft", "2;16,8;1,8", "-algo", "d-mod-k", "-app", "cg", "-bytes", "4096", "-mapping", "round-robin"}},
	} {
		var out bytes.Buffer
		if err := c.mode(c.args, &out); err != nil {
			t.Errorf("%s %v: %v", c.golden, c.args, err)
			continue
		}
		checkGolden(t, c.golden, wallTime.ReplaceAllString(out.String(), ""))
	}
}

// TestRoutesDumpTable: -dump-table writes the LFT-style table the
// standalone routegen wrote, and names the file on stdout.
func TestRoutesDumpTable(t *testing.T) {
	wantTable, wantOut := readGolden(t, "routes-dump-table.table"), readGolden(t, "routes-dump-table")
	t.Chdir(t.TempDir())
	var out bytes.Buffer
	if err := routes([]string{"-xgft", "2;8,8;1,8", "-algo", "r-NCA-d", "-pattern", "tornado", "-dump-table", "table.txt"}, &out); err != nil {
		t.Fatal(err)
	}
	table, err := os.ReadFile("table.txt")
	if err != nil {
		t.Fatal(err)
	}
	if string(table) != wantTable || out.String() != wantOut {
		t.Errorf("-dump-table wrote\n%s\nand printed\n%s\nwant\n%s\nand\n%s", table, out.String(), wantTable, wantOut)
	}
}

// TestModesRefuseBeforePrinting: traffic that does not fit the tree and
// unknown names fail before a mode writes anything.
func TestModesRefuseBeforePrinting(t *testing.T) {
	for _, c := range []struct {
		mode func([]string, io.Writer) error
		args []string
		err  string
	}{
		{routes, []string{"-xgft", "2;8,8;1,8", "-pattern", "wrf"}, "wrf needs 256 leaves, topology has 64"},
		{routes, []string{"-xgft", "2;8,8;1,8", "-pattern", "cg"}, "cg needs 128 leaves, topology has 64"},
		{routes, []string{"-xgft", "2;8,8;1,8", "-pattern", "cg-transpose"}, "cg-transpose needs 128 leaves, topology has 64"},
		{routes, []string{"-xgft", "2;8,8;1,8", "-pattern", "random-perm"}, `unknown traffic "random-perm"`},
		{routes, []string{"-xgft", "2;8,8;1,8", "-pattern", "bitrev"}, `unknown traffic "bitrev"`},
		{routes, []string{"-xgft", "2;8,8;1,8", "-pattern", "shift:x"}, "bad shift distance"},
		{routes, []string{"-xgft", "2;4,2;1,2", "-pattern", "transpose"}, "transpose needs a square node count, got 8"},
		{point, []string{"-xgft", "2;8,8;1,4", "-app", "cg", "-engine", "venus"}, "cg needs 128 leaves, topology has 64"},
		{point, []string{"-app", "alltoall"}, `unknown application "alltoall"`},
		{topo, []string{"-xgft", "2;4,4;1,4", "-kary", "4"}, "give either -xgft or -kary, not both"},
		{topo, []string{"-kary", "4"}, "-kary needs -n"},
		{topo, nil, "give -xgft or -kary"},
	} {
		var out bytes.Buffer
		err := c.mode(c.args, &out)
		if err == nil || !strings.Contains(err.Error(), c.err) || out.Len() != 0 {
			t.Errorf("%v: error %v, stdout %q; want %q and no output", c.args, err, out.String(), c.err)
		}
	}
}

func readGolden(t *testing.T, name string) string {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", name+".golden"))
	if err != nil {
		t.Fatal(err)
	}
	return string(want)
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	if want := readGolden(t, name); got != want {
		t.Errorf("%s: stdout differs from the golden\ngot:\n%s\nwant:\n%s", name, got, want)
	}
}
