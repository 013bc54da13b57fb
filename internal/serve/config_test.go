package serve

import (
	"reflect"
	"testing"
	"time"
)

// TestConfigResolutionOrder: there is one layer under spmv-serve's flags,
// DefaultConfig, and Config offers no second way in — seven plain fields,
// none with a wire name a file or an environment could address.
func TestConfigResolutionOrder(t *testing.T) {
	want := Config{Addr: ":8097", Window: DefaultWindow, MaxBatch: DefaultMaxBatch, DrainTimeout: 5 * time.Second}
	if got := DefaultConfig(); got != want {
		t.Fatalf("DefaultConfig() = %+v, want %+v", got, want)
	}
	typ := reflect.TypeOf(Config{})
	if typ.NumField() != 7 {
		t.Errorf("Config has %d fields, want 7", typ.NumField())
	}
	for i := 0; i < typ.NumField(); i++ {
		if f := typ.Field(i); f.Tag != "" {
			t.Errorf("Config.%s carries the tag %q", f.Name, f.Tag)
		}
	}
}
