package a

// Count exports count to the external test.
var Count = count
