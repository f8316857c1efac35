//! The compiled slot tagger against the string-keyed trainer it replaced.
//!
//! `SlotTagger::train_with` interns features into dense ids and keeps
//! its weights in flat rows, but it must make every perceptron update in
//! the same order and add every emission sum in the same order as the
//! trainer below, a verbatim copy of the one that keyed its weights by
//! feature string. On each synthesized NLU set and on the ATIS train
//! split, both trainers must produce the same tag set, bit-equal
//! emission, transition and initial weights, and the same tags for every
//! training utterance and for a seeded typo variant of each.

use cat_core::AnnotationFile;
use cat_corpus::{
    generate_atis, generate_cinema, generate_flights, generate_hotel, train_test_split, AtisConfig,
    CinemaConfig, FlightConfig, HotelConfig, CINEMA_ANNOTATIONS, FLIGHT_ANNOTATIONS,
    HOTEL_ANNOTATIONS,
};
use cat_datagen::{extract_tasks, generate_nlu_data, DataGenConfig};
use cat_nlg::NoiseModel;
use cat_nlu::text::tokenize;
use cat_nlu::{NluExample, SlotTagger, TaggerConfig};

/// The NLU training set `CatBuilder::synthesize` would generate for a
/// database and its annotations.
fn synthesized(mut db: cat_txdb::Database, annotations: &str) -> Vec<NluExample> {
    let ann = AnnotationFile::parse(annotations).expect("annotations");
    ann.apply_to(&mut db).expect("apply");
    let tasks = extract_tasks(&db);
    generate_nlu_data(&db, &tasks, &ann.template_set(), &DataGenConfig::default())
}

fn assert_parity(name: &str, data: &[NluExample]) {
    let cfg = TaggerConfig::default();
    let old = reference::SlotTagger::train_with(data, &cfg);
    let new = SlotTagger::train_with(data, &cfg);

    assert_eq!(new.tag_set(), old.tags.as_slice(), "{name}: tag set");
    let k = old.tags.len();
    assert_eq!(
        new.weighted_features().count(),
        old.weights.len(),
        "{name}: updated-feature count"
    );
    for (feature, w) in &old.weights {
        let got = new
            .emission_weights(feature)
            .unwrap_or_else(|| panic!("{name}: `{feature}` has no weights"));
        let bits = |ws: &[f64]| ws.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(got), bits(w), "{name}: weights of `{feature}`");
    }
    for p in 0..k {
        for n in 0..k {
            assert_eq!(
                new.transition_weight(p, n).to_bits(),
                old.trans[p][n].to_bits(),
                "{name}: transition {p} -> {n}"
            );
        }
        assert_eq!(
            new.initial_weights()[p].to_bits(),
            old.init[p].to_bits(),
            "{name}: initial weight of {p}"
        );
    }

    let typos = NoiseModel::new(1.5);
    for (i, ex) in data.iter().enumerate() {
        let (typo, _) = typos.corrupt_seeded(&ex.text, &[], i as u64);
        for text in [ex.text.as_str(), typo.as_str()] {
            let tokens = tokenize(text);
            assert_eq!(
                new.tag(&tokens),
                old.tag(&tokens),
                "{name}: tags of `{text}`"
            );
        }
    }
}

#[test]
fn cinema_tagger_matches_reference() {
    let db = generate_cinema(&CinemaConfig::small(1)).expect("db");
    assert_parity("cinema", &synthesized(db, CINEMA_ANNOTATIONS));
}

#[test]
fn flight_tagger_matches_reference() {
    let db = generate_flights(&FlightConfig::small(1)).expect("db");
    assert_parity("flight", &synthesized(db, FLIGHT_ANNOTATIONS));
}

#[test]
fn hotel_tagger_matches_reference() {
    let db = generate_hotel(&HotelConfig::small(1)).expect("db");
    assert_parity("hotel", &synthesized(db, HOTEL_ANNOTATIONS));
}

#[test]
fn atis_tagger_matches_reference() {
    let (train, _) = train_test_split(generate_atis(&AtisConfig::default()), 0.2, 7);
    assert_parity("atis", &train);
}

/// The string-keyed averaged-perceptron trainer, kept as the reference.
mod reference {
    use std::collections::HashMap;

    use cat_nlu::text::{word_shape, Token};
    use cat_nlu::NluExample;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;

    use super::TaggerConfig;

    pub struct SlotTagger {
        pub tags: Vec<String>,
        pub weights: HashMap<String, Vec<f64>>,
        pub trans: Vec<Vec<f64>>,
        pub init: Vec<f64>,
    }

    const NEG_INF: f64 = f64::NEG_INFINITY;

    impl SlotTagger {
        pub fn train_with(data: &[NluExample], cfg: &TaggerConfig) -> SlotTagger {
            let mut tags = vec!["O".to_string()];
            let mut tag_ids: HashMap<String, usize> = HashMap::new();
            tag_ids.insert("O".to_string(), 0);
            let prepared: Vec<(Vec<Token>, Vec<usize>)> = data
                .iter()
                .map(|ex| {
                    let (tokens, tag_strs) = ex.bio_tags();
                    let ids = tag_strs
                        .iter()
                        .map(|t| {
                            *tag_ids.entry(t.clone()).or_insert_with(|| {
                                tags.push(t.clone());
                                tags.len() - 1
                            })
                        })
                        .collect();
                    (tokens, ids)
                })
                .collect();
            let n_tags = tags.len();

            let mut model = SlotTagger {
                tags,
                weights: HashMap::new(),
                trans: vec![vec![0.0; n_tags]; n_tags],
                init: vec![0.0; n_tags],
            };
            let mut w_total: HashMap<String, Vec<f64>> = HashMap::new();
            let mut w_stamp: HashMap<String, usize> = HashMap::new();
            let mut t_total = vec![vec![0.0; n_tags]; n_tags];
            let mut t_stamp = vec![vec![0usize; n_tags]; n_tags];
            let mut i_total = vec![0.0; n_tags];
            let mut i_stamp = vec![0usize; n_tags];
            let mut step = 0usize;

            let mut order: Vec<usize> = (0..prepared.len()).collect();
            let mut rng = StdRng::seed_from_u64(cfg.seed);
            for _ in 0..cfg.epochs {
                order.shuffle(&mut rng);
                for &idx in &order {
                    let (tokens, gold) = &prepared[idx];
                    if tokens.is_empty() {
                        continue;
                    }
                    step += 1;
                    let feats: Vec<Vec<String>> = (0..tokens.len())
                        .map(|i| position_features(tokens, i))
                        .collect();
                    let pred = model.viterbi(&feats);
                    if &pred == gold {
                        continue;
                    }
                    for (i, fs) in feats.iter().enumerate() {
                        if pred[i] == gold[i] {
                            continue;
                        }
                        for f in fs {
                            let w = model
                                .weights
                                .entry(f.clone())
                                .or_insert_with(|| vec![0.0; n_tags]);
                            let tot = w_total
                                .entry(f.clone())
                                .or_insert_with(|| vec![0.0; n_tags]);
                            let stamp = w_stamp.entry(f.clone()).or_insert(0);
                            let elapsed = (step - *stamp) as f64;
                            for t in [gold[i], pred[i]] {
                                tot[t] += elapsed * w[t];
                            }
                            *stamp = step;
                            w[gold[i]] += 1.0;
                            w[pred[i]] -= 1.0;
                        }
                    }
                    let mut upd_trans =
                        |prev: usize, next: usize, delta: f64, model: &mut SlotTagger| {
                            let elapsed = (step - t_stamp[prev][next]) as f64;
                            t_total[prev][next] += elapsed * model.trans[prev][next];
                            t_stamp[prev][next] = step;
                            model.trans[prev][next] += delta;
                        };
                    let mut upd_init = |t: usize, delta: f64, model: &mut SlotTagger| {
                        let elapsed = (step - i_stamp[t]) as f64;
                        i_total[t] += elapsed * model.init[t];
                        i_stamp[t] = step;
                        model.init[t] += delta;
                    };
                    if gold[0] != pred[0] {
                        upd_init(gold[0], 1.0, &mut model);
                        upd_init(pred[0], -1.0, &mut model);
                    }
                    for i in 1..tokens.len() {
                        if gold[i - 1] != pred[i - 1] || gold[i] != pred[i] {
                            upd_trans(gold[i - 1], gold[i], 1.0, &mut model);
                            upd_trans(pred[i - 1], pred[i], -1.0, &mut model);
                        }
                    }
                }
            }
            if step > 0 {
                let steps = step as f64;
                for (f, w) in model.weights.iter_mut() {
                    let tot = w_total
                        .entry(f.clone())
                        .or_insert_with(|| vec![0.0; n_tags]);
                    let stamp = w_stamp.get(f).copied().unwrap_or(0);
                    let elapsed = (step - stamp) as f64;
                    for t in 0..n_tags {
                        tot[t] += elapsed * w[t];
                        w[t] = tot[t] / steps;
                    }
                }
                for p in 0..n_tags {
                    for n in 0..n_tags {
                        let elapsed = (step - t_stamp[p][n]) as f64;
                        t_total[p][n] += elapsed * model.trans[p][n];
                        model.trans[p][n] = t_total[p][n] / steps;
                    }
                    let elapsed = (step - i_stamp[p]) as f64;
                    i_total[p] += elapsed * model.init[p];
                    model.init[p] = i_total[p] / steps;
                }
            }
            model
        }

        pub fn tag(&self, tokens: &[Token]) -> Vec<String> {
            if tokens.is_empty() {
                return Vec::new();
            }
            let feats: Vec<Vec<String>> = (0..tokens.len())
                .map(|i| position_features(tokens, i))
                .collect();
            self.viterbi(&feats)
                .into_iter()
                .map(|t| self.tags[t].clone())
                .collect()
        }

        fn allowed(&self, prev: Option<usize>, next: usize) -> bool {
            let next_tag = &self.tags[next];
            if let Some(slot) = next_tag.strip_prefix("I-") {
                match prev {
                    None => false,
                    Some(p) => {
                        let pt = &self.tags[p];
                        pt.strip_prefix("B-") == Some(slot) || pt.strip_prefix("I-") == Some(slot)
                    }
                }
            } else {
                true
            }
        }

        fn emission(&self, feats: &[String], tag: usize) -> f64 {
            feats
                .iter()
                .filter_map(|f| self.weights.get(f))
                .map(|w| w[tag])
                .sum()
        }

        #[allow(clippy::needless_range_loop)]
        fn viterbi(&self, feats: &[Vec<String>]) -> Vec<usize> {
            let n = feats.len();
            let k = self.tags.len();
            let mut score = vec![vec![NEG_INF; k]; n];
            let mut back = vec![vec![0usize; k]; n];
            for t in 0..k {
                if self.allowed(None, t) {
                    score[0][t] = self.init[t] + self.emission(&feats[0], t);
                }
            }
            for i in 1..n {
                for t in 0..k {
                    let em = self.emission(&feats[i], t);
                    let mut best = NEG_INF;
                    let mut best_p = 0;
                    for p in 0..k {
                        if score[i - 1][p] == NEG_INF || !self.allowed(Some(p), t) {
                            continue;
                        }
                        let s = score[i - 1][p] + self.trans[p][t];
                        if s > best {
                            best = s;
                            best_p = p;
                        }
                    }
                    if best > NEG_INF {
                        score[i][t] = best + em;
                        back[i][t] = best_p;
                    }
                }
            }
            let mut last = (0..k)
                .max_by(|&a, &b| {
                    score[n - 1][a]
                        .partial_cmp(&score[n - 1][b])
                        .expect("comparable")
                })
                .expect("k > 0");
            let mut path = vec![0usize; n];
            path[n - 1] = last;
            for i in (1..n).rev() {
                last = back[i][last];
                path[i - 1] = last;
            }
            path
        }
    }

    fn position_features(tokens: &[Token], i: usize) -> Vec<String> {
        let tok = &tokens[i];
        let lower = tok.lower();
        let mut f = Vec::with_capacity(12);
        f.push("bias".to_string());
        f.push(format!("w={lower}"));
        f.push(format!("shape={}", word_shape(&tok.text)));
        let chars: Vec<char> = lower.chars().collect();
        let n = chars.len();
        f.push(format!("pre2={}", chars.iter().take(2).collect::<String>()));
        f.push(format!("pre3={}", chars.iter().take(3).collect::<String>()));
        f.push(format!(
            "suf2={}",
            chars[n.saturating_sub(2)..].iter().collect::<String>()
        ));
        f.push(format!(
            "suf3={}",
            chars[n.saturating_sub(3)..].iter().collect::<String>()
        ));
        if chars.iter().all(|c| c.is_ascii_digit()) {
            f.push("all-digit".to_string());
        }
        if tok.text.chars().next().is_some_and(|c| c.is_uppercase()) {
            f.push("init-cap".to_string());
        }
        if i == 0 {
            f.push("BOS".to_string());
        } else {
            f.push(format!("w-1={}", tokens[i - 1].lower()));
        }
        if i + 1 == tokens.len() {
            f.push("EOS".to_string());
        } else {
            f.push(format!("w+1={}", tokens[i + 1].lower()));
        }
        f
    }
}
