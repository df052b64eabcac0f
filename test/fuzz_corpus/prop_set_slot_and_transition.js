// One property set-site alternates between storing an existing slot and
// adding the property (a shape transition), with back-to-back stores of
// each kind and transitions from two source shapes.
function put(o, v) { o.x = v; return 0; }
function bench() {
  var s = 0;
  var i;
  for (i = 0; i < 8; i++) {
    var o = {};
    put(o, i);
    var q = {};
    put(q, i + 2);
    put(o, i + 1);
    var p = { x: 1 };
    put(p, i);
    var r = { y: 1 };
    put(r, i);
    s = s + o.x + p.x + q.x + r.x + r.y;
  }
  return s;
}
var k;
result = 0;
for (k = 0; k < 6; k++) { result = result + bench(); }
