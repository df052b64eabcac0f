// A property get-site first reads [q] before any store has interned the
// name; [setq] then interns it, and the same site reads an object that
// has it.  A lookup that remembered the first miss would keep answering
// undefined.
function get(o) { return o.q; }
function setq(o) { o.q = 5; return 0; }
function bench() {
  var a = {};
  var s = 0;
  var r = get(a);
  if (r == undefined) { s = s + 1; }
  var b = {};
  setq(b);
  s = s + get(b);
  if (get(a) == undefined) { s = s + 2; }
  return s;
}
var i;
result = 0;
for (i = 0; i < 6; i++) { result = result * 10 + bench(); }
