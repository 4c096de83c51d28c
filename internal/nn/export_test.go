package nn

// WithDefaults exposes the §4 recipe defaults to the external tests, so the
// tape oracle in train_oracle_test.go trains under exactly TrainLNN's
// configuration.
func (c TrainConfig) WithDefaults() TrainConfig { return c.withDefaults() }
