# A single-carrier wavefront with fan-out 2: primed west and north-west reads
# give dependences (0,1) and (1,1), so dimension 1 alone carries both and
# dimension 0 vectorises (the benchmark's wide_multicast_pool shape).
#! arrays: a[1..2048, 1..16] = 0.5
#! constants: n = 2048, w = 16
direction nw = (-1, -1);
[3..n, 3..w] scan
  a := 0.3 + 0.4 * a'@west + 0.2 * a'@nw;
end;
