package main

import (
	"reflect"
	"strings"
	"testing"
)

func TestParseOnly(t *testing.T) {
	names := []string{"table1", "fig1", "fig5", "scenarios"}
	for _, c := range []struct {
		only string
		want map[string]bool
	}{
		{"", nil},
		{"fig5", map[string]bool{"fig5": true}},
		{" fig1, fig5 ,", map[string]bool{"fig1": true, "fig5": true}},
		{"scenarios", map[string]bool{"scenarios": true}},
	} {
		got, err := parseOnly(c.only, names)
		if err != nil {
			t.Errorf("parseOnly(%q): %v", c.only, err)
			continue
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("parseOnly(%q) = %v, want %v", c.only, got, c.want)
		}
	}
	// Unknown names, and a list naming no job, fail before anything
	// runs, and the error lists every known job.
	for _, only := range []string{"fig55,tabel1", "fig5,fig55", ",", " "} {
		got, err := parseOnly(only, names)
		if err == nil {
			t.Errorf("parseOnly(%q) = %v, want an error", only, got)
			continue
		}
		if !strings.Contains(err.Error(), strings.Join(names, ",")) {
			t.Errorf("parseOnly(%q) error %q does not list the known jobs", only, err)
		}
	}
}
