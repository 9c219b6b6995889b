(* PolyBench sweep: the paper's Fig. 6 across problem sizes.

   Runs the seven kernels of the evaluation (2mm, 3mm, gemm, conv,
   gesummv, bicg, mvt) host-only and with TDO-CIM, at three dataset
   sizes, and prints the energy/EDP tables. Shows the crossover the
   paper describes: GEMM-like kernels win by growing factors as the
   problem grows; GEMV-like kernels stay below 1x because their compute
   intensity (MACs per crossbar write) is ~1.

   The datasets fan out over Tdo_util.Pool (every kernel run takes its
   PRNG seed explicitly, so the parallel results are bit-identical to a
   sequential sweep; set TDO_DOMAINS=1 to check).

   Run with: dune exec examples/polybench_sweep.exe *)

module E = Tdo_cim.Experiments
module Dataset = Tdo_polybench.Dataset
module Pool = Tdo_util.Pool

let () =
  print_endline "=== PolyBench/C sweep (Fig. 6) ===";
  let datasets = [ Dataset.Small; Dataset.Medium; Dataset.Large ] in
  let results = Pool.parallel_map (fun dataset -> E.fig6 ~dataset ()) datasets in
  List.iter2
    (fun dataset result ->
      Printf.printf "\n--- dataset %s (n = %d) ---\n" (Dataset.to_string dataset)
        (Dataset.n dataset);
      E.print_fig6_results ~n:(Dataset.n dataset) result)
    datasets results
