// One method call site sees a string receiver, whose indexOf is an
// intrinsic, and an object whose indexOf is a function property.  The
// optimizing tiers must compile it as a generic call, not as the string
// intrinsic.  test_vm.ml's "no method" test adds an array receiver.
function m(c) { return 7; }
function call(r) { return r.indexOf("b"); }
function bench() {
  var s = "abc";
  var o = { indexOf: m };
  var t = 0;
  var i;
  for (i = 0; i < 3; i++) { t = t + call(s) + call(o); }
  return t;
}
var k;
result = 0;
for (k = 0; k < 4; k++) { result = result + bench(); }
