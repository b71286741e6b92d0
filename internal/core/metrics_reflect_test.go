package core

import (
	"reflect"
	"testing"
)

// setNumericFields assigns a distinct nonzero value to every settable
// numeric field of v (a pointer to struct) and returns the field names.
func setNumericFields(t testing.TB, v interface{}) []string {
	t.Helper()
	var names []string
	sv := reflect.ValueOf(v).Elem()
	st := sv.Type()
	for i := 0; i < st.NumField(); i++ {
		f := sv.Field(i)
		switch f.Kind() {
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			f.SetInt(int64(i + 1)) // distinct per field, so swaps are caught
			names = append(names, st.Field(i).Name)
		}
	}
	return names
}

// TestMetricsAddFoldsEveryNumericField pins the aggregation invariant:
// every numeric field of PageMetrics must have a same-named field in
// Metrics, and Add must fold each one. Adding a counter to PageMetrics
// without extending Metrics and Add now fails this test instead of
// silently dropping the new field from crawl summaries.
func TestMetricsAddFoldsEveryNumericField(t *testing.T) {
	var pm PageMetrics
	fields := setNumericFields(t, &pm)
	if len(fields) == 0 {
		t.Fatal("PageMetrics has no numeric fields — test is vacuous")
	}

	var m Metrics
	m.Add(pm)

	pv := reflect.ValueOf(pm)
	mv := reflect.ValueOf(m)
	for _, name := range fields {
		mf := mv.FieldByName(name)
		if !mf.IsValid() {
			t.Errorf("PageMetrics.%s has no same-named Metrics field: the aggregate silently drops it", name)
			continue
		}
		want := pv.FieldByName(name).Int()
		if got := mf.Int(); got != want {
			t.Errorf("Metrics.%s = %d after Add, want %d (field not folded, or folded from the wrong source)", name, got, want)
		}
	}
	if m.Pages != 1 {
		t.Errorf("Pages = %d after one Add, want 1", m.Pages)
	}
	if len(m.PerPage) != 1 || m.PerPage[0] != pm {
		t.Errorf("PerPage after Add = %+v, want the added PageMetrics", m.PerPage)
	}
}

// TestMetricsMergeFoldsEveryNumericField does the same for Merge: every
// numeric field of Metrics itself (Pages and PagesFailed included) must
// transfer. Merging twice must double every field — catching a field
// that is copied instead of accumulated.
func TestMetricsMergeFoldsEveryNumericField(t *testing.T) {
	var o Metrics
	fields := setNumericFields(t, &o)
	o.PerPage = []PageMetrics{{URL: "u"}}

	var m Metrics
	m.Merge(&o)
	m.Merge(&o)

	ov := reflect.ValueOf(o)
	mv := reflect.ValueOf(m)
	for _, name := range fields {
		want := 2 * ov.FieldByName(name).Int()
		if got := mv.FieldByName(name).Int(); got != want {
			t.Errorf("Metrics.%s = %d after two Merges, want %d", name, got, want)
		}
	}
	if len(m.PerPage) != 2 {
		t.Errorf("PerPage length = %d after two Merges, want 2", len(m.PerPage))
	}
}
