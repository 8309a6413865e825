package core

// NoisyPeriodic exposes the package's test series to the external tests.
var NoisyPeriodic = noisyPeriodic
