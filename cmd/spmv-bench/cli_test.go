package main

import (
	"bytes"
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestCLI builds the binary once and drives its argument contract as a
// real process: what -list prints, and that every malformed invocation is
// a usage error (nonzero exit, a message naming the fault, no report).
func TestCLI(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "spmv-bench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	run := func(args ...string) (code int, stdout, stderr string) {
		var o, e bytes.Buffer
		cmd := exec.Command(bin, args...)
		cmd.Stdout, cmd.Stderr = &o, &e
		err := cmd.Run()
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			code = ee.ExitCode()
		} else if err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		return code, o.String(), e.String()
	}

	code, out, _ := run("-list")
	var ids []string
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		ids = append(ids, strings.Fields(line)[0])
	}
	if want := "table2 table3 fig1 table4 fig2 fig3 fig4 fig5 fig6 fig7 fig8 fig9"; code != 0 || strings.Join(ids, " ") != want {
		t.Errorf("-list: exit %d, ids %q, want %q", code, ids, want)
	}

	for _, c := range []struct {
		args []string
		code int
		msg  string
	}{
		{[]string{"fig99"}, 1, `unknown experiment "fig99"`},
		{[]string{"-devices", "Tesla-A100,nosuch", "fig3"}, 1, `unknown device "nosuch" (AMD-EPYC-24, `},
		{[]string{"-sample", "-3", "fig3"}, 1, "bad -sample -3"},
		{[]string{"-sample", "8x", "fig3"}, 2, `invalid value "8x" for flag -sample`}, // the flag package's usage exit
		{[]string{"-rhs", "8", "fig7"}, 2, "flag provided but not defined: -rhs"},
	} {
		code, out, errOut := run(c.args...)
		if code != c.code || !strings.Contains(errOut, c.msg) || out != "" {
			t.Errorf("%v: exit %d (want %d), stdout %q, stderr %q (want %q)", c.args, code, c.code, out, errOut, c.msg)
		}
	}

	// host is one more device name, and Table II has a row for it.
	if code, out, errOut := run("-devices", "host", "table2"); code != 0 || !strings.Contains(out, "\nhost ") {
		t.Errorf("-devices host table2: exit %d, stdout %q, stderr %q", code, out, errOut)
	}
}
