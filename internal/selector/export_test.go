package selector

// Vote is the k-NN vote BuildAuto takes, for the external tests.
var Vote = vote
